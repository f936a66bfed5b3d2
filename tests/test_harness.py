import dataclasses
import itertools
import multiprocessing
import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from conftest import time_limit

import loragate.harness as harness
from loragate import blas
from loragate.adapter import THRESHOLD_FLOOR, final_sparse_update
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream
from loragate.errors import ConfigError, StateError
from loragate.harness import TaskLog, evaluate, resolve_orders, run_stream, train_task
from loragate.metrics import backward_transfer
from loragate.model import TinyTransformer, build_model


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


def assert_same_log(got: TaskLog, want: TaskLog) -> None:
    """Every field equal, arrays bit for bit and of the same dtype."""
    for f in dataclasses.fields(TaskLog):
        gv, wv = getattr(got, f.name), getattr(want, f.name)
        if isinstance(wv, np.ndarray):
            assert gv.dtype == wv.dtype
            np.testing.assert_array_equal(gv, wv)
        elif f.name == "merged":
            assert gv.keys() == wv.keys()
            for lid, dw in wv.items():
                assert gv[lid].dtype == dw.dtype
                np.testing.assert_array_equal(gv[lid], dw)
        else:
            assert gv == wv, f.name


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

    def test_a_floored_gate_reports_the_floor(self):
        # a default-config Jump-InCLoRA task ends with its gate at the floor
        # (ROADMAP, Baseline), which must not read below THRESHOLD_FLOOR
        cfg = ExperimentConfig(method=Method.JUMP_INCLORA)
        stream = stream_for(cfg)
        log = train_task(fresh_model(cfg, stream, 42), stream, 0, cfg, run_seed=42)
        assert log.threshold == THRESHOLD_FLOOR and log.threshold >= THRESHOLD_FLOOR

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

    @pytest.mark.parametrize("start_frac", [0.2, 1.0])
    def test_penalty_receives_the_sparse_update_once_gated(self, monkeypatch, start_frac):
        # the dense update before the threshold exists, then the sparse one;
        # with start_frac = 1 it exists only after the epoch
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
        cfg = tiny_config(method=Method.JUMP_ELLA, ella_lambda=[50.0],
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
        expected = made["dense"][:before_init] + made["jump"]
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

    @pytest.mark.parametrize("method", [Method.JUMP_INCLORA, Method.INCLORA],
                             ids=lambda m: m.value)
    def test_mask_equals_final_update_support(self, monkeypatch, method):
        cfg = tiny_config(method=method)
        stream = stream_for(cfg)
        result = run_stream(stream, cfg, seed=42)
        # reconstruct task 0 exactly: same model seed, adapter seeds, data
        # order; keep the adapters that train_task injects and the gate it
        # initialises, if any
        injected, gates = [], []
        inject, init_gate = harness.inject_adapters, harness.init_gate

        def keeping(kept, make):
            def wrapper(*args):
                kept.append(make(*args))
                return kept[-1]
            return wrapper

        monkeypatch.setattr(harness, "inject_adapters", keeping(injected, inject))
        monkeypatch.setattr(harness, "init_gate", keeping(gates, init_gate))
        model = fresh_model(cfg, stream, 42)
        log = train_task(model, stream, 0, cfg, run_seed=42)
        (adapters,) = injected
        (gate,) = gates if method.gated else [None]
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

    def test_first_stream_task_trained_once_others_twice(self, monkeypatch, tmp_path):
        # stream position 0 doubles as its task's isolated run; every other task
        # trains in the stream and alone; no other task's train data is read.
        # Fetches go to a file: a solo run may train in a forked helper
        cfg = tiny_config()
        stream = stream_for(cfg)
        log, fetch = tmp_path / "fetches.log", stream.fetch

        def logging_fetch(task_id, split):
            with log.open("a") as f:
                f.write(f"{task_id} {split}\n")
            return fetch(task_id, split)

        monkeypatch.setattr(stream, "fetch", logging_fetch)
        run_stream(stream, cfg, seed=42, order=[1, 0])
        accesses = [(int(t), split) for t, split in map(str.split, log.read_text().splitlines())]
        train_counts = {}
        for tid, split in accesses:
            if split == "train":
                train_counts[tid] = train_counts.get(tid, 0) + 1
        assert train_counts == {1: 1, 0: 2}

    def test_shared_isolated_accuracies_are_exact(self, monkeypatch, serial_solo_runs):
        trained = []
        train = harness.train_task

        def counting_train_task(model, stream, task_id, *args, **kwargs):
            trained.append(task_id)
            return train(model, stream, task_id, *args, **kwargs)

        cfg = tiny_config(n_tasks=3)
        alone = [run_stream(stream_for(cfg), cfg, seed=42, order=order)
                 for order in ([0, 1, 2], [2, 0, 1])]
        monkeypatch.setattr(harness, "train_task", counting_train_task)
        stream = stream_for(cfg)
        isolated = harness.SoloRuns(stream, cfg, 42)
        shared = [run_stream(stream, cfg, seed=42, order=order, isolated=isolated)
                  for order in ([0, 1, 2], [2, 0, 1])]
        # the first order trains tasks 1 and 2 alone; the second replays task 2
        # at position 0 and trains no task alone
        assert trained == [0, 1, 2, 1, 2] + [0, 1]
        assert sorted(isolated) == [0, 1, 2]
        for a, b in zip(alone, shared):
            np.testing.assert_array_equal(a.matrix.grid, b.matrix.grid)
            assert a.trace_hash == b.trace_hash

    def test_stream_training_holds_one_model(self, monkeypatch, serial_solo_runs):
        # the stream trains the one model it builds, after the solo run of
        # order[0] has dropped its own, and a later solo run's model is built
        # once the stream's is gone: no training overlaps a second model
        models, alive_at_training = [], []
        init, train_task = TinyTransformer.__init__, harness.train_task

        def tracked_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            models.append(weakref.ref(model))

        def counting_train_task(*args, **kwargs):
            alive_at_training.append(sum(ref() is not None for ref in models))
            return train_task(*args, **kwargs)

        monkeypatch.setattr(TinyTransformer, "__init__", tracked_init)
        monkeypatch.setattr(harness, "train_task", counting_train_task)
        cfg = tiny_config(n_tasks=3)
        result = run_stream(stream_for(cfg), cfg, seed=42, order=[2, 0, 1])
        # order[0] alone, stream positions 1 and 2, then tasks 0 and 1 alone
        assert alive_at_training == [1, 1, 1, 1, 1]
        assert not np.isnan(result.matrix.grid[0]).any()

    def test_replayed_first_position_equals_trained(self, monkeypatch):
        cfg = tiny_config(method=Method.JUMP_ELLA, ella_lambda=[800.0])
        stream = stream_for(cfg)
        order = [1, 0]
        isolated = harness.SoloRuns(stream, cfg, 42)
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
                assert_same_log(r, t)
            assert result_model.params.keys() == model.params.keys()
            for name, param in model.params.items():
                np.testing.assert_array_equal(result_model.params[name].data,
                                              param.data)
            for pos, row in enumerate(rows):
                assert list(result.matrix.grid[pos + 1, :pos + 1]) == row
        np.testing.assert_array_equal(shared.matrix.grid, fresh.matrix.grid)
        assert shared.trace_hash == fresh.trace_hash
        # position 1 trained against the past that position 0 fed
        unpenalized = tiny_config(method=Method.JUMP_INCLORA)
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


class TestSoloHelper:
    """The solo runs of ``order[1:]`` trained in a forked helper: it fails
    loudly, sends its warnings, and never outlives ``run_stream``; and the
    fork primitive under it."""

    def test_forked_only_with_a_free_core(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not harness.second_core_free()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert harness.second_core_free() == (
            "fork" in multiprocessing.get_all_start_methods())
        # a --jobs worker already has a core of its own
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert not harness.second_core_free()

    def test_exception_in_the_helper_is_raised_here(self, monkeypatch, helper_solo_runs):
        caller, train = os.getpid(), harness.train_task

        def poisoned_in_helper(model, *args, **kwargs):
            if os.getpid() != caller:
                model.params["head"].data[0, 0] = np.nan
            return train(model, *args, **kwargs)

        monkeypatch.setattr(harness, "train_task", poisoned_in_helper)
        cfg = tiny_config()
        with time_limit(60), pytest.raises(
                StateError, match=r"^task 1: non-finite loss nan at step 0$"):
            run_stream(stream_for(cfg), cfg, seed=42)
        assert multiprocessing.active_children() == []

    def test_helper_that_dies_raises_with_its_exit_code(self, monkeypatch,
                                                        helper_solo_runs):
        caller, train_solo = os.getpid(), harness.SoloRuns.__missing__

        def dying_in_helper(*args):
            if os.getpid() != caller:
                os._exit(3)
            return train_solo(*args)

        monkeypatch.setattr(harness.SoloRuns, "__missing__", dying_in_helper)
        cfg = tiny_config()
        with time_limit(60), pytest.raises(StateError, match="exited with code 3"):
            run_stream(stream_for(cfg), cfg, seed=42)
        assert multiprocessing.active_children() == []

    def test_send_to_a_dead_helper_raises_with_its_exit_code(self):
        # the helper exits before it takes a value too large for the pipe
        def dying_after_sending(send, recv):
            send(None)
            os._exit(3)

        with time_limit(60), harness.forked(dying_after_sending) as helper:
            helper.recv()
            with pytest.raises(StateError, match="exited with code 3"):
                helper.send(np.zeros(1 << 20))  # 8 MiB
        assert multiprocessing.active_children() == []

    def test_exception_here_ends_the_helper(self, monkeypatch, helper_solo_runs):
        caller = os.getpid()

        def failing_here(*args, **kwargs):
            if os.getpid() == caller:
                raise StateError("injected failure")
            time.sleep(600)  # outlasts the time limit unless terminated

        monkeypatch.setattr(harness, "train_task", failing_here)
        cfg = tiny_config()
        with time_limit(60), pytest.raises(StateError, match="injected failure"):
            run_stream(stream_for(cfg), cfg, seed=42)
        assert multiprocessing.active_children() == []

    def test_forked_helper_exchanges_values_and_warnings(self):
        # each value arrives after the warnings issued before it was sent
        def add_one(send, recv, first):
            warnings.warn("before the first value")
            send(first)
            value = recv()
            warnings.warn("before the second value")
            send(value + 1)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with time_limit(60), harness.forked(add_one, 41) as helper:
                assert helper.recv() == 41
                assert [str(w.message) for w in caught] == ["before the first value"]
                helper.send(1)
                assert helper.recv() == 2
        assert [str(w.message) for w in caught] == ["before the first value",
                                                    "before the second value"]
        assert multiprocessing.active_children() == []

    def test_helper_warnings_reach_the_caller(self, monkeypatch):
        # start_frac 1 puts every gated task's threshold init past its epoch:
        # 3 trainings warn, and the helper makes one of them
        cfg = tiny_config(start_frac=1.0, end_frac=1.0)
        seen = {}
        for helper in (False, True):
            monkeypatch.setattr(harness, "second_core_free", lambda helper=helper: helper)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_stream(stream_for(cfg), cfg, seed=42)
            seen[helper] = sorted((str(w.message), w.category.__name__, w.filename, w.lineno)
                                  for w in caught)
        assert seen[True] == seen[False]
        assert sum("fell past the epoch" in w[0] for w in seen[True]) == 3

    def test_a_seed_that_misses_no_solo_run_still_swaps(self, monkeypatch, helper_solo_runs):
        # one task: order 0 reads only the run this process trains, so no miss
        # ever swaps the runs; they must still cross at the end, once, and no
        # helper may be left
        cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=1, n_tasks=1,
                               classes_per_task=2, samples_per_class=16, seq_len=8,
                               batch_size=8)
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task, cfg.seq_len,
                                      cfg.vocab_size)
        sent, send = [], harness.Helper.send

        def counting_send(helper, value):
            sent.append(value)
            send(helper, value)

        monkeypatch.setattr(harness.Helper, "send", counting_send)
        with time_limit(60):
            result = harness.run_stream(stream, cfg, 42)
        assert multiprocessing.active_children() == []
        assert [sorted(value) for value in sent] == [[0]]
        serial = harness.run_stream(stream, cfg, 42, isolated=harness.SoloRuns(stream, cfg, 42))
        assert result.trace_hash == serial.trace_hash


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


def orders_of(n_tasks, n_orders):
    return resolve_orders(ExperimentConfig(n_tasks=n_tasks, n_orders=n_orders, data_seed=7))


class TestOrders:
    def test_identity_order(self):
        assert orders_of(4, 1) == [[0, 1, 2, 3]]

    def test_permuted_orders_deterministic(self):
        o1 = orders_of(5, 3)
        o2 = orders_of(5, 3)
        assert o1 == o2
        assert all(sorted(o) == [0, 1, 2, 3, 4] for o in o1)

    def test_orders_are_distinct(self):
        # drawn independently, orders 1..5 of three tasks repeat two permutations
        orders = orders_of(3, 6)
        assert orders[0] == [0, 1, 2]
        assert sorted(map(tuple, orders)) == sorted(itertools.permutations(range(3)))

    @pytest.mark.parametrize("n_tasks,n_orders", [(2, 3), (3, 7), (3, 0)])
    def test_orders_outside_the_permutation_count_rejected(self, n_tasks, n_orders):
        # no config holds more orders than its tasks have, so resolve_orders,
        # where 3 orders of 2 tasks once redrew forever, never sees one
        with pytest.raises(ConfigError,
                           match=rf"n_orders must lie in \[1, {n_tasks}!\], got {n_orders}"):
            ExperimentConfig(n_tasks=n_tasks, n_orders=n_orders)

    def test_distinct_draws_keep_their_order(self):
        # a prefix of orders that were already distinct is unchanged
        assert orders_of(4, 4) == [[0, 1, 2, 3], [3, 1, 2, 0], [2, 0, 1, 3], [1, 0, 2, 3]]
        assert orders_of(3, 2) == orders_of(3, 6)[:2]

    def test_run_with_permuted_order(self):
        cfg = tiny_config()
        stream = stream_for(cfg)
        result = run_stream(stream, cfg, seed=42, order=[1, 0])
        assert not np.isnan(result.matrix.final_row()).any()


# seed-42 trace hashes of the default config at 64 samples per class; a change
# to any of them is a change to the numerics, made on purpose or not at all
PINNED_HASHES = {
    "inclora": (dict(method=Method.INCLORA),
                "688693b65de7413ec928970cb0ba2e8d9efe3a9d58bf705ba95f10cf6b59e15a"),
    "jump-inclora": (dict(method=Method.JUMP_INCLORA),
                     "df0f50247c31ec8bf450d6b240eefe9cee58e826577c4b88cc99bce6a998087d"),
    "ella": (dict(method=Method.ELLA, ella_lambda=[1.0]),
             "b630e387993b336a95bbd823aad225082fa9a729fa7f9a516b3f9668e96901bb"),
    "jump-ella": (dict(method=Method.JUMP_ELLA, ella_lambda=[1.0]),
                  "16c2533b1009b377eb79847f8c24e96da809b12d8b20a4304fa11fbd1a192a7d"),
    "jump-ella-lambda16": (
        dict(method=Method.JUMP_ELLA, ella_lambda=[16.0]),
        "959fe39a6944b0658e1653866fa55eb64751aea084b03ca226244cc975f18a90"),
}


@pytest.mark.parametrize("name", list(PINNED_HASHES))
def test_pinned_trace_hash(name):
    overrides, expected = PINNED_HASHES[name]
    cfg = ExperimentConfig(samples_per_class=64, **overrides)
    assert run_stream(stream_for(cfg), cfg, seed=42).trace_hash == expected


@pytest.mark.parametrize("name", list(PINNED_HASHES))
def test_helper_trains_as_the_serial_path(name, monkeypatch, tmp_path):
    # the solo runs of order[1:] after the stream with a dict, then in a
    # forked helper, through run_stream without a dict and through run_seed
    # of the one order: the same pinned hash, matrix, logs and solo runs
    overrides, expected = PINNED_HASHES[name]
    cfg = ExperimentConfig(samples_per_class=64, **overrides)
    stream = stream_for(cfg)
    order = list(range(cfg.n_tasks))
    found = blas.openblas_threads()
    log, train = tmp_path / "train_task.log", harness.train_task

    def logging_train_task(*args, **kwargs):
        with log.open("a") as f:
            f.write(f"{os.getpid()} {found[1]() if found else 1}\n")
        return train(*args, **kwargs)

    def keeping_runs(k, runs):
        dicts.append(runs)
        return run_stream(stream, cfg, 42, order, runs)

    monkeypatch.setattr(harness, "train_task", logging_train_task)
    monkeypatch.setattr(harness, "second_core_free", lambda: False)
    dicts = [harness.SoloRuns(stream, cfg, 42)]
    results = [run_stream(stream, cfg, seed=42, isolated=dicts[0])]
    monkeypatch.setattr(harness, "second_core_free", lambda: True)
    results.append(run_stream(stream, cfg, seed=42))
    results += harness.run_seed(stream, cfg, 42, [order], keeping_runs)

    serial = results[0]
    for result in results:
        assert result.trace_hash == expected
        np.testing.assert_array_equal(result.matrix.grid, serial.matrix.grid)
        assert len(result.logs) == len(serial.logs)
        for got, want in zip(result.logs, serial.logs):
            assert_same_log(got, want)
    assert sorted(dicts[1]) == sorted(dicts[0]) == order
    for tid, want in dicts[0].items():
        got = dicts[1][tid]
        assert got.accuracy == want.accuracy
        assert_same_log(got.log, want.log)
        for array in (got.log.losses, *got.log.merged.values()):
            assert not array.flags.writeable

    calls = [line.split() for line in log.read_text().splitlines()]
    # 3 stream positions and 4 solo runs a run; the helper trains 3 solo runs
    assert len(calls) == 3 * 7
    assert sum(pid != str(os.getpid()) for pid, _ in calls) == 2 * 3
    assert {threads for _, threads in calls} == {"1"}

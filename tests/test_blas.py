"""A run holds OpenBLAS to one thread and gives the caller's count back."""

import inspect
import os

import pytest

import loragate.harness as harness
from loragate import blas, cli
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream
from loragate.errors import StateError


def tiny_run():
    cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=2,
                           n_tasks=2, classes_per_task=2,
                           samples_per_class=32, seq_len=8, batch_size=16,
                           warmup_steps=2, method=Method.JUMP_INCLORA)
    stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                  cfg.difficulty, cfg.classes_per_task,
                                  cfg.seq_len, cfg.vocab_size)
    return harness.run_stream(stream, cfg, 42)


@pytest.fixture
def threads():
    """The (set, get) pair, with the caller's count at 2 during the test."""
    found = blas.openblas_threads()
    if found is None:
        pytest.skip("no OpenBLAS thread control in this process")
    setter, getter = found
    before = getter()
    setter(2)
    yield setter, getter
    setter(before)


def test_one_thread_inside_run_stream(threads, monkeypatch, tmp_path):
    # written to a file: the isolated run may train in a forked helper
    _, getter = threads
    log = tmp_path / "threads.log"
    for name in ("train_task", "evaluate"):
        original = getattr(harness, name)

        def observed(*args, _original=original, **kwargs):
            with log.open("a") as f:
                f.write(f"{getter()}\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, observed)
    tiny_run()
    seen = [int(line) for line in log.read_text().split()]
    # 2 stream trainings, 3 evaluations, 1 isolated training and its evaluation
    assert seen == [1] * 7


GRID = """\
vocab_size = 24
d_model = 16
n_heads = 2
n_blocks = 2
n_tasks = 3
classes_per_task = 2
samples_per_class = 32
seq_len = 8
batch_size = 16
method = jump-inclora
n_orders = 2
seeds = 42
output_dir = {out}
"""


def test_one_thread_in_every_training_of_a_grid(threads, monkeypatch, tmp_path,
                                                helper_solo_runs):
    # a split seed trains its solo runs outside run_stream, in this process
    # and in its helper; written to a file, which both append to
    _, getter = threads
    log = tmp_path / "threads.log"
    train_task = harness.train_task

    def observed(*args, **kwargs):
        with log.open("a") as f:
            f.write(f"{os.getpid()} {getter()}\n")
        return train_task(*args, **kwargs)

    monkeypatch.setattr(harness, "train_task", observed)
    config = tmp_path / "grid.cfg"
    config.write_text(GRID.format(out=tmp_path / "out"))
    assert cli.cmd_run(str(config)) == 0
    calls = [line.split() for line in log.read_text().splitlines()]
    # 3 tasks alone, then positions 1 and 2 of each of the 2 orders
    assert len(calls) == 3 + 2 * 2
    assert len({pid for pid, _ in calls}) == 2
    assert {threads for _, threads in calls} == {"1"}
    assert getter() == 2


def test_caller_count_restored_after_return(threads):
    _, getter = threads
    tiny_run()
    assert getter() == 2


def test_caller_count_restored_after_raise(threads, monkeypatch):
    _, getter = threads

    def failing(*args, **kwargs):
        raise StateError("injected failure")

    monkeypatch.setattr(harness, "train_task", failing)
    with pytest.raises(StateError, match="injected failure"):
        tiny_run()
    assert getter() == 2


def test_same_trace_hash_without_thread_control(monkeypatch):
    pinned = tiny_run().trace_hash
    monkeypatch.setattr(blas, "openblas_threads", lambda: None)
    assert tiny_run().trace_hash == pinned


def test_run_stream_signature_kept():
    # perfbench/instrument.py binds run_stream's arguments by name
    params = list(inspect.signature(harness.run_stream).parameters)
    assert params == ["stream", "config", "seed", "order", "isolated"]

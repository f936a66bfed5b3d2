"""The benchmark's timing hooks still fit the package they wrap.

``perfbench/instrument.py`` replaces package functions by name and binds their
arguments by signature, so a renamed function or a changed signature breaks the
benchmark without breaking any other test. This loads that file as it is and
runs a tiny stream, and a tiny ``loragate run`` grid, under its hooks, and runs
the benchmark's own self-tests.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import loragate.harness as harness
from loragate import autodiff, cli, model, optim
from loragate.config import ExperimentConfig, Method
from loragate.data import generate_task_stream

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_run(shared=False, **kwargs):
    """A tiny run; ``shared`` passes it a ``SoloRuns`` of the caller's, as
    ``loragate run`` does."""
    cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=2,
                           n_tasks=2, classes_per_task=2,
                           samples_per_class=32, seq_len=8, batch_size=16,
                           warmup_steps=2, method=Method.JUMP_ELLA, ella_lambda=[50.0])
    stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                  cfg.difficulty, cfg.classes_per_task,
                                  cfg.seq_len, cfg.vocab_size)
    if shared:
        kwargs["isolated"] = harness.SoloRuns(stream, cfg, 42)
    # looked up at call time, so the hooks' binding is the one called
    return harness.run_stream(stream, cfg, 42, **kwargs)


def bindings(instrument) -> dict:
    owners = (*instrument.MODULES, optim, optim.AdamW, autodiff.Tape,
              model.TinyTransformer)
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def test_hooks_keep_trace_hash_and_uninstall_restores_bindings(serial_solo_runs):
    # serial: the hooks see only this process, not a solo-run helper
    instrument = load_instrument()
    plain = tiny_run(order=[1, 0])
    # taken after a plain run, which may add a module's warning registry
    before = bindings(instrument)

    probe = instrument.Probe().install()
    tracer = instrument.Tracer().install()
    try:
        hooked = tiny_run(shared=True, order=[1, 0])
    finally:
        tracer.uninstall()
        probe.uninstall()

    after = bindings(instrument)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    assert hooked.trace_hash == plain.trace_hash
    layers, _ = instrument.layer_metrics([tracer.state()])
    assert layers["harness.train_task_calls"] == 3  # 2 stream trainings, 1 isolated
    assert layers["harness.isolated_train_s"] > 0
    assert probe.train_samples > 0 and probe.eval_samples > 0
    assert len(probe.train_ce) == len(probe.step_ms) > 0


def test_one_dense_bank_update_per_optimizer_step(serial_solo_runs):
    # the adapter bank builds every layer's dense update in one call, so the
    # tracer sees one per optimizer step (one per layer and step before)
    instrument = load_instrument()
    tracer = instrument.Tracer().install()
    try:
        tiny_run()
    finally:
        tracer.uninstall()
    _, table = instrument.layer_metrics([tracer.state()])
    steps = table["optim.step"][2]
    assert steps > 0 and table["adapter.dense_update"][2] == steps


GRID = """\
vocab_size = 24
d_model = 16
n_heads = 2
n_blocks = 2
n_tasks = 2
classes_per_task = 2
samples_per_class = 32
seq_len = 8
batch_size = 16
method = jump-ella
ella_lambda = 50
n_orders = 2
seeds = 42
output_dir = {out}
"""


def test_tracer_follows_a_grid_that_shares_solo_runs_and_the_stream(tmp_path,
                                                                   serial_solo_runs):
    # serial: the tracer sees only this process, not a solo-run helper
    instrument = load_instrument()
    before = bindings(instrument)
    config = tmp_path / "grid.cfg"
    config.write_text(GRID.format(out=tmp_path / "out"))

    tracer = instrument.Tracer().install()
    try:
        assert cli.cmd_run(str(config), jobs=1) == 0
    finally:
        tracer.uninstall()

    after = bindings(instrument)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    layers, table = instrument.layer_metrics([tracer.state()])
    # each task once alone, then every position but 0 in each of the 2 orders
    assert layers["harness.train_task_calls"] == 4
    assert table["data.generate"][2] == 1


def test_gridrun_records_every_run_under_a_pool(tmp_path):
    # the benchmark's own --jobs 2 repeat runs one seed and so starts no pool;
    # this runs its hooks in pool workers, as a grid of several seeds does
    config = tmp_path / "grid.cfg"
    out = tmp_path / "out"
    config.write_text(GRID.replace("seeds = 42", "seeds = 42,43").format(out=out))
    done = subprocess.run([sys.executable, "perfbench/gridrun.py", "--config", str(config),
                           "--jobs", "2", "--trace", "1"], cwd=INSTRUMENT.parents[1],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]

    report = (out / "report.txt").read_text()
    states = []
    for order in (0, 1):
        for seed in (42, 43):
            record = json.loads((out / f"perfbench-o{order}-s{seed}.json").read_text())
            assert f"trace: {record['run']['trace_hash']}" in report
            states.append(record["tracer"])
    layers, _ = load_instrument().layer_metrics(states)
    # per seed: each task once alone, then position 1 of each order
    assert layers["harness.train_task_calls"] == 8


def test_benchmark_selftest_passes():
    # every workload on a tiny config, traced and untraced, as the benchmark
    # driver runs it: a changed signature that a hook binds fails here
    root = INSTRUMENT.parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]

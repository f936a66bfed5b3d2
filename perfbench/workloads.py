"""The benchmark's workloads and the correctness checks applied to every repeat.

Each workload is built from the seed alone: the seed is the run seed of every
repeat (model, adapter and shuffle streams), so accuracy and ``trace_hash``
repeat exactly across repeats of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from loragate import data
from loragate.config import ExperimentConfig, Method, format_config


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    grid_jobs: int = 0  # > 0: run `loragate run --jobs grid_jobs` instead

    def config_for(self, seed: int) -> ExperimentConfig:
        return replace(self.config, seeds=[seed])


WORKLOADS = {w.name: w for w in (
    # every per-step mechanism runs: gate, interpolation, threshold
    # pseudo-gradient and overlap penalty
    Workload(
        "gated-default",
        ExperimentConfig(method=Method.JUMP_ELLA, ella_lambda=[1.0]),
    ),
    # gate and penalty bypassed, so a change to either must show no gain here;
    # 12 tasks make evaluation (T^2 calls) and per-task set-up visible.
    # Run by hand only: BENCHMARK.json lists two workloads, so that each
    # of its runs can be long within the time allowed for all runs.
    Workload(
        "dense-many-tasks",
        ExperimentConfig(method=Method.INCLORA, n_tasks=12, vocab_size=128,
                         samples_per_class=128, batch_size=64),
    ),
    # the only path through the CLI: config round-trip, mask dumps, isolated
    # runs repeated across orders.  Serial, because two pool workers each
    # running BLAS threads on two cores vary several-fold from run to run.
    Workload(
        "cli-grid",
        ExperimentConfig(method=Method.JUMP_INCLORA, samples_per_class=64, n_orders=4),
        grid_jobs=1,
    ),
)}


def make_inputs(workload: Workload, seed: int):
    """Everything a repeat consumes: the task stream, or the config file text
    for a CLI grid (whose workers generate their own streams)."""
    cfg = workload.config_for(seed)
    if workload.grid_jobs:
        return format_config(cfg)
    return data.generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                     cfg.difficulty, cfg.classes_per_task,
                                     cfg.seq_len, cfg.vocab_size)


def matrix_problems(grid: np.ndarray) -> list[str]:
    """Accuracy grid of shape (T + 1, T): row 0 and the lower triangle of rows
    1..T must be set and lie in [0, 1]; every other entry must be unset."""
    t = grid.shape[1]
    expected = np.zeros(grid.shape, dtype=bool)
    expected[0] = True
    for row in range(1, t + 1):
        expected[row, :row] = True
    problems = []
    if np.isnan(grid[expected]).any():
        problems.append("accuracy matrix is incomplete")
    if not np.isnan(grid[~expected]).all():
        problems.append("accuracy matrix has entries outside the lower triangle")
    values = grid[expected & ~np.isnan(grid)]
    if ((values < 0) | (values > 1)).any():
        problems.append("accuracy outside [0, 1]")
    return problems


def loss_problems(losses_per_task) -> list[str]:
    bad = [i for i, losses in enumerate(losses_per_task)
           if not np.isfinite(np.asarray(losses, dtype=np.float64)).all()]
    return [f"non-finite loss at stream position {i}" for i in bad]

"""Command-line interface: run experiments, verify gradients, analyze masks.

``loragate run`` generates the task stream once and hands out one seed at a
time: a seed's orders share its solo runs, so each is trained once at any --jobs.

``loragate run`` pins two glibc malloc thresholds for its process, which its
pool workers inherit: arrays below 64 MiB come from the heap rather than from
fresh mappings, and the heap top is returned to the system only once 256 MiB
of it are free. A training step allocates and frees arrays of a few hundred
KiB each, so without the pin their pages are faulted in anew on many steps.
Both are set because setting either one turns off glibc's adjustment of the
other: the mmap threshold alone leaves the trim threshold at 128 KiB, and the
heap top is trimmed and faulted in again every step. The pin lives in
``cmd_run``, which owns its process, and not in ``run_stream``: glibc has no
call that reads a threshold back, so a library function could not restore
its caller's. Where libc has no ``mallopt`` nothing is set.
"""

from __future__ import annotations

import argparse
import ctypes
import multiprocessing
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import arrayio
from .config import ExperimentConfig, format_config, load_config
from .data import generate_task_stream
from .errors import ConfigError
from .gradcheck import run_gradcheck
from .harness import SoloRun, resolve_orders, run_stream
from .metrics import (
    backward_transfer,
    forward_transfer,
    jaccard_overlap,
    mean_prior_overlap,
    overall_accuracy,
    sparsity,
)

ENV_OUTPUT_ROOT = "LORAGATE_OUTPUT_ROOT"

# glibc's mallopt parameters (malloc.h) and the values ``cmd_run`` pins
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 256 << 20


# ---------------------------------------------------------------------------
# run


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds (see the module docstring); a
    no-op where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # a trim threshold alone would pin the mmap threshold at its 128 KiB start
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _output_dir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    return (Path(root) / cfg.output_dir) if root else Path(cfg.output_dir)


def _fmt(value) -> str:
    if value is None:
        return "na"
    return repr(float(value))


def _write_accuracy_csv(path: Path, matrix) -> None:
    lines = ["row,task_index,accuracy"]
    for row in range(matrix.grid.shape[0]):
        for col in range(matrix.grid.shape[1]):
            v = matrix.grid[row, col]
            if not np.isnan(v):
                lines.append(f"{row},{col},{_fmt(v)}")
    path.write_text("\n".join(lines) + "\n")


def _mask_summary(result) -> tuple[float, float | None]:
    """Mean sparsity over (task, layer) and mean pairwise Jaccard over layers."""
    by_layer = [[masks[lid] for masks in result.masks] for lid in sorted(result.masks[0])]
    sparsities = [sparsity(m) for ms in by_layer for m in ms]
    pair_vals = []
    for ms in by_layer:
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                pair_vals.append(jaccard_overlap(ms[i], ms[j]))
    mean_sp = float(np.mean(sparsities)) if sparsities else 0.0
    mean_jac = float(np.mean(pair_vals)) if pair_vals else None
    return mean_sp, mean_jac


def _run_single(payload) -> dict:
    """One order of one seed, artifacts written; ``payload`` is ((config, stream,
    orders, the seed's solo runs), order index, seed, output dir)."""
    (cfg, stream, orders, isolated), order_index, seed, out = payload
    order = orders[order_index]
    result = run_stream(stream, cfg, seed, order=order, isolated=isolated)

    _write_accuracy_csv(out / f"accuracy_o{order_index}_s{seed}.csv", result.matrix)
    mask_root = out / "masks" / f"o{order_index}_s{seed}"
    for pos, masks in enumerate(result.masks):
        meta = {"task_position": pos, "task_id": order[pos],
                "thresholds": result.logs[pos].thresholds}
        arrayio.save_arrays(mask_root / f"task{pos}", masks, meta)

    mean_sp, mean_jac = _mask_summary(result)
    return {
        "order": order_index,
        "seed": seed,
        "oa": overall_accuracy(result.matrix),
        "bwt": backward_transfer(result.matrix),
        "fwt": forward_transfer(result.matrix),
        "mean_sparsity": mean_sp,
        "mean_pairwise_jaccard": mean_jac,
        "trace_hash": result.trace_hash,
        "per_task_sparsity": [float(np.mean([sparsity(m) for m in masks.values()]))
                              for masks in result.masks],
    }


def _run_grid_point(payload):
    """Summary of one (order, seed) run, or (order, seed, repr(exc)) if it raised."""
    try:
        return _run_single(payload)
    except Exception as exc:  # noqa: BLE001 - one failed run must not lose the grid
        traceback.print_exc()
        return (payload[1], payload[2], repr(exc))


def _run_seed(unit) -> list:
    """Every order of one seed, in order, through ``_run_grid_point``; the
    orders share the seed's solo runs, so each task is trained alone once."""
    cfg, stream, orders, seed, out = unit
    isolated: dict[int, SoloRun] = {}
    return [_run_grid_point(((cfg, stream, orders, isolated), o, seed, out))
            for o in range(len(orders))]


def cmd_run(config_path: str, jobs: int = 1) -> int:
    if jobs < 1:
        print(f"error: --jobs must be at least 1, got {jobs}", file=sys.stderr)
        return 2
    _pin_malloc_thresholds()
    try:
        cfg = load_config(config_path)
        orders = resolve_orders(cfg.n_tasks, cfg.n_orders, cfg.data_seed)
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task,
                                      cfg.seq_len, cfg.vocab_size)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(format_config(cfg))

    units = [(cfg, stream, orders, s, out) for s in cfg.seeds]
    workers = min(jobs, len(units))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            per_seed = pool.map(_run_seed, units)
    else:
        per_seed = list(map(_run_seed, units))
    outcomes = [r for runs in per_seed for r in runs]
    failures = sorted(r for r in outcomes if isinstance(r, tuple))
    summaries = sorted((r for r in outcomes if isinstance(r, dict)),
                       key=lambda r: (r["order"], r["seed"]))
    metric_lines = ["metric,order,seed,value"]
    for r in summaries:
        for name in ("oa", "bwt", "fwt", "mean_sparsity", "mean_pairwise_jaccard"):
            metric_lines.append(f"{name},{r['order']},{r['seed']},{_fmt(r[name])}")
    (out / "metrics.csv").write_text("\n".join(metric_lines) + "\n")

    report = [f"runs: {len(summaries)} (orders={cfg.n_orders}, seeds={cfg.seeds})",
              f"method: {cfg.method.value}"]
    for r in summaries:
        report.append(
            f"order {r['order']} seed {r['seed']}: "
            f"OA={_fmt(r['oa'])} BWT={_fmt(r['bwt'])} FWT={_fmt(r['fwt'])} "
            f"mean_sparsity={_fmt(r['mean_sparsity'])} "
            f"mean_pairwise_jaccard={_fmt(r['mean_pairwise_jaccard'])}"
        )
        per_task = " ".join(_fmt(v) for v in r["per_task_sparsity"])
        report.append(f"  per-task sparsity: {per_task}")
        report.append(f"  trace: {r['trace_hash']}")
    if summaries:
        oas = [r["oa"] for r in summaries]
        report.append(f"mean OA across runs: {_fmt(float(np.mean(oas)))}")
    if failures:
        report.append("INCOMPLETE: some runs failed")
        for o, s, msg in failures:
            report.append(f"  order {o} seed {s}: {msg}")
    (out / "report.txt").write_text("\n".join(report) + "\n")
    print(f"wrote artifacts to {out}")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# analyze


def _select_layers(selector: str, layer_ids: list[str]) -> list[str]:
    """The layers a ``--layer`` selector names; ``middle`` takes those of the
    middle block, counting the blocks by the ``blk{i}.`` prefixes of the ids."""
    if selector == "all":
        return layer_ids
    if selector == "middle":
        mid = len({lid.split(".")[0] for lid in layer_ids}) // 2
        chosen = [lid for lid in layer_ids if lid.startswith(f"blk{mid}.")]
        if not chosen:
            raise ConfigError(f"no adapted layers found for middle block {mid}")
        return chosen
    if selector not in layer_ids:
        raise ConfigError(f"unknown layer {selector!r}; known: {layer_ids}")
    return [selector]


def cmd_analyze(directory: str, layer: str = "all") -> int:
    out = Path(directory)
    mask_root = out / "masks"
    if not mask_root.is_dir():
        print(f"error: no mask dumps under {out}", file=sys.stderr)
        return 2

    for run_dir in sorted(mask_root.iterdir()):
        if not run_dir.is_dir():
            continue
        try:  # a ValueError here is a bad task directory name or store entry
            task_dirs = sorted(run_dir.glob("task*"),
                               key=lambda p: int(p.name.removeprefix("task")))
            per_task = [arrayio.load_arrays(td)[0] for td in task_dirs]
        except (OSError, ValueError) as exc:
            print(f"error: cannot read mask dumps in {run_dir}: {exc}", file=sys.stderr)
            return 2
        if not per_task:
            continue
        layer_ids = sorted(per_task[0])
        for td, arrays in zip(task_dirs, per_task):
            if sorted(arrays) != layer_ids:
                print(f"error: cannot read mask dumps in {run_dir}: {td.name} holds "
                      f"layers {sorted(arrays)}, {task_dirs[0].name} holds {layer_ids}",
                      file=sys.stderr)
                return 2
        try:
            chosen = _select_layers(layer, layer_ids)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines = ["task,layer,sparsity,mean_prior_jaccard"]
        for t, arrays in enumerate(per_task):
            for lid in chosen:
                history = [per_task[i][lid] for i in range(t + 1)]
                overlap = mean_prior_overlap(history, t)
                lines.append(f"{t},{lid},{_fmt(sparsity(arrays[lid]))},{_fmt(overlap)}")
        target = out / f"analysis_{run_dir.name}_{layer.replace('.', '_')}.csv"
        target.write_text("\n".join(lines) + "\n")
        print(f"wrote {target}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loragate",
        description="Continual learning with threshold-gated low-rank adapters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment grid")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes, each running one seed "
                            "(all its orders) at a time, at most one per seed; "
                            "each worker runs on one BLAS thread, so N workers "
                            "use N cores; a failed run is reported in "
                            "report.txt at any job count")

    sub.add_parser("gradcheck", help="finite-difference and kernel gradient checks")

    p_an = sub.add_parser("analyze", help="sparsity/overlap tables from mask dumps")
    p_an.add_argument("--dir", required=True, help="artifact directory of a run")
    p_an.add_argument("--layer", default="all",
                      help="adapted layer id, 'middle', or 'all'")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.jobs)
    if args.command == "gradcheck":
        return run_gradcheck()
    if args.command == "analyze":
        return cmd_analyze(args.dir, args.layer)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())

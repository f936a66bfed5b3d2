"""Command-line interface: run experiments and verify gradients.

``loragate run`` writes, per (order, seed), the accuracy matrix, the support
mask of every stream position and layer, and the isolation table scored from
those masks; ``metrics.csv`` and ``report.txt`` then summarise the grid. It
first deletes every artifact of the names in ``ARTIFACTS``, so a smaller rerun
into the same directory leaves nothing stale. It generates the task stream
once and hands each seed to ``harness.run_seed``, which splits it over two
cores with one helper where a second core is free; ``--jobs N`` >= 2 runs each
seed in a helper of its own instead (``_run_pool``). ``harness``'s docstring
sets out the process model. A run that raises, or a helper that dies, fails
only the orders whose outcome it held, in ``report.txt``.

``loragate run`` pins two glibc malloc thresholds for its process, which its
helpers inherit: arrays below 64 MiB come from the heap rather than from
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
import shutil
import sys
import traceback
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import arrayio, harness
from .config import format_config, load_config
from .data import generate_task_stream
from .errors import ConfigError
from .gradcheck import run_gradcheck
from .harness import resolve_orders, run_stream
from .metrics import MaskOverlap, backward_transfer, forward_transfer, overall_accuracy

# glibc's mallopt parameters (malloc.h) and the values ``cmd_run`` pins
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 256 << 20

# everything ``cmd_run`` writes but config.txt, as globs in the output directory
ARTIFACTS = ("masks", "accuracy_*.csv", "isolation_*.csv", "metrics.csv", "report.txt")

# the per-run metrics of metrics.csv and report.txt, in the order both print them
SUMMARY = ("oa", "bwt", "fwt", "mean_sparsity", "mean_pairwise_jaccard")


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


def _write_isolation_csv(path: Path, overlap: MaskOverlap, order) -> None:
    lines = ["position,task_id,layer,kept_fraction,mean_prior_jaccard,"
             "expected_jaccard,excess"]
    for pos, lid, *values in overlap.isolation_rows():
        lines.append(f"{pos},{order[pos]},{lid}," + ",".join(map(_fmt, values)))
    path.write_text("\n".join(lines) + "\n")


def _run_single(payload) -> dict:
    """One order of one seed, artifacts written; ``payload`` is ((config, stream,
    orders, the seed's solo runs), order index, seed, output dir)."""
    (cfg, stream, orders, isolated), order_index, seed, out = payload
    order = orders[order_index]
    result = run_stream(stream, cfg, seed, order=order, isolated=isolated)

    _write_accuracy_csv(out / f"accuracy_o{order_index}_s{seed}.csv", result.matrix)
    mask_root = out / "masks" / f"o{order_index}_s{seed}"
    masks = [{lid: (dw != 0).astype(np.uint8) for lid, dw in log.merged.items()}
             for log in result.logs]
    for pos, task_masks in enumerate(masks):
        meta = {"task_position": pos, "task_id": order[pos],
                "threshold": result.logs[pos].threshold}
        arrayio.save_arrays(mask_root / f"task{pos}", task_masks, meta)
    overlap = MaskOverlap(masks)
    _write_isolation_csv(out / f"isolation_o{order_index}_s{seed}.csv", overlap, order)

    return {
        "order": order_index,
        "seed": seed,
        "oa": overall_accuracy(result.matrix),
        "bwt": backward_transfer(result.matrix),
        "fwt": forward_transfer(result.matrix),
        "mean_sparsity": float(np.mean(overlap.sparsity)),
        "mean_pairwise_jaccard": overlap.mean_pairwise_jaccard(),
        "trace_hash": result.trace_hash,
        "per_task_sparsity": [float(np.mean(s)) for s in overlap.sparsity.T],
    }


def _run_seed(unit) -> list:
    """Every order of one seed, in order, through ``_run_single`` on
    ``harness.run_seed``'s schedule; never raises. A run that raises fails its
    order, and any other exception, a dead helper included, fails every order
    whose outcome this process does not yet hold, each as (order, seed,
    repr(exc))."""
    cfg, stream, orders, seed, out = unit
    held: dict = {}

    def each(o, isolated):
        try:
            held[o] = _run_single(((cfg, stream, orders, isolated), o, seed, out))
        except Exception as exc:  # noqa: BLE001 - one failed run must not lose the grid
            traceback.print_exc()
            held[o] = (o, seed, repr(exc))
        return held[o]

    try:
        return harness.run_seed(stream, cfg, seed, orders, each)
    except Exception as exc:  # noqa: BLE001 - one lost seed must not lose the grid
        traceback.print_exc()
        return [held.get(o, (o, seed, repr(exc))) for o in range(len(orders))]


def _seed_worker(send, recv, unit) -> None:
    """A ``--jobs`` worker: send the outcomes of one seed."""
    send(_run_seed(unit))


def _run_pool(units, workers: int) -> list:
    """``_run_seed`` of each unit, each in a ``_seed_worker`` helper of its
    own, ``workers`` at a time (seeds do equal work), or for a seed whose
    helper died, a failure of each of its orders."""
    per_seed = []
    for lo in range(0, len(units), workers):
        batch = units[lo:lo + workers]
        with ExitStack() as stack:
            helpers = [stack.enter_context(harness.forked(_seed_worker, unit))
                       for unit in batch]
            for (_, _, orders, seed, _), helper in zip(batch, helpers):
                try:
                    per_seed.append(helper.recv())
                except Exception as exc:  # noqa: BLE001 - one lost seed must not lose the grid
                    traceback.print_exc()
                    per_seed.append([(o, seed, repr(exc)) for o in range(len(orders))])
    return per_seed


def cmd_run(config_path: str, jobs: int = 1) -> int:
    if jobs < 1:
        print(f"error: --jobs must be at least 1, got {jobs}", file=sys.stderr)
        return 2
    _pin_malloc_thresholds()
    try:
        cfg = load_config(config_path)
        orders = resolve_orders(cfg)
        stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                      cfg.difficulty, cfg.classes_per_task,
                                      cfg.seq_len, cfg.vocab_size)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.output_dir)
    for pattern in ARTIFACTS:
        for stale in out.glob(pattern):
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(format_config(cfg))

    units = [(cfg, stream, orders, s, out) for s in cfg.seeds]
    workers = min(jobs, len(units))
    per_seed = (_run_pool(units, workers) if workers > 1
                else list(map(_run_seed, units)))
    outcomes = [r for runs in per_seed for r in runs]
    failures = sorted(r for r in outcomes if isinstance(r, tuple))
    summaries = sorted((r for r in outcomes if isinstance(r, dict)),
                       key=lambda r: (r["order"], r["seed"]))
    metric_lines = ["metric,order,seed,value"]
    for r in summaries:
        for name in SUMMARY:
            metric_lines.append(f"{name},{r['order']},{r['seed']},{_fmt(r[name])}")
    (out / "metrics.csv").write_text("\n".join(metric_lines) + "\n")

    report = [f"runs: {len(summaries)} (orders={cfg.n_orders}, seeds={cfg.seeds})",
              f"method: {cfg.method.value}"]
    for r in summaries:
        report.append(f"order {r['order']} seed {r['seed']}: "
                      + " ".join(f"{name}={_fmt(r[name])}" for name in SUMMARY))
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
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loragate",
        description="Continual learning with threshold-gated low-rank adapters",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="run the configured experiment grid; "
                                            "write its accuracy matrices, support "
                                            "masks, isolation tables and summaries")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes, each running one seed (all its "
                            "orders) at a time, at most one per seed; at 1, "
                            "each seed also uses a second core where one is "
                            "free; a failed run or a dead worker is reported "
                            "in report.txt")

    commands.add_parser("gradcheck", help="finite-difference and kernel gradient checks")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.jobs)
    if args.command == "gradcheck":
        return run_gradcheck()
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""loragate benchmark: end-to-end metrics per workload, checked outputs, and a
separately traced run for the per-layer table.

Usage:
    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 20] [--trace 0|1]

Workloads are listed in ``workloads.py``.  With ``--trace 0`` the run repeats
the workload until ``--seconds`` are used and reports every end-to-end metric
of ``BENCHMARK.json`` as a mean over the repeats (set-up time as a median);
with ``--trace 1`` it makes untraced and traced repeats in turn and reports
every per-layer metric, from the traced ones.
The traced run of the CLI grid ends with one untraced ``--jobs 2`` repeat,
whose time is reported beside the serial one.  Every repeat is checked
(finite losses, a complete accuracy matrix in [0, 1], one ``trace_hash`` per
seed); a repeat that fails a check or raises counts as failed.

Human-readable lines come first; the last line of standard output is the JSON
result.  A record of the run, with the environment, per-repeat values and the
spans of the last traced repeat, goes to ``.perfbench_out/``.

The benchmark drives loragate only from outside: ``harness.run_stream``
in-process, and ``loragate run`` in a subprocess for the CLI grid.  It sets no
BLAS thread variable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import instrument  # noqa: E402
import workloads  # noqa: E402
from loragate import harness  # noqa: E402
from loragate.config import format_config  # noqa: E402
from loragate.metrics import overall_accuracy  # noqa: E402

SETUP_REPEATS = 5
POOL_JOBS = 2
SUBPROCESS_TIMEOUT_S = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Repeats:
    """Measurements of the repeats that passed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: list = []
        self.values: list[dict] = []  # per repeat: end-to-end values and "traced"
        self.layers: list[dict] = []  # traced repeats only
        self.table: dict = {}
        self.spans: list = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"repeat {self.attempted}: {p}" for p in problems)

    def check_hash(self, trace_hash) -> list[str]:
        self.hashes.append(trace_hash)
        if trace_hash != self.hashes[0]:
            return [f"trace_hash {trace_hash} differs from {self.hashes[0]}"]
        return []

    def add(self, run_s, cpu_s, oa, probes: list[dict], traced: list[dict] | None) -> None:
        """Record a passed repeat from its clock readings, the probe states of
        the processes that ran it and, when traced, their tracer states."""
        steps = [ms for p in probes for ms in p["step_ms"]]
        self.values.append({
            "run_s": run_s,
            "cpu_s": cpu_s,
            "train_samples_per_s": (sum(p["train_samples"] for p in probes)
                                    / sum(p["train_s"] for p in probes)),
            "step_ms_p50": float(np.percentile(steps, 50)),
            "step_ms_p90": float(np.percentile(steps, 90)),
            "eval_samples_per_s": (sum(p["eval_samples"] for p in probes)
                                   / sum(p["eval_s"] for p in probes)),
            "train_ce": statistics.fmean(ce for p in probes for ce in p["train_ce"]),
            "oa": oa,
            "traced": traced is not None,
        })
        if traced is None:
            return
        layers, self.table = instrument.layer_metrics(traced)
        self.layers.append(layers)
        self.spans = [state["spans"] for state in traced]

    def median(self, name: str, traced: bool = False) -> float:
        return statistics.median(v[name] for v in self.values if v["traced"] == traced)

    def mean(self, name: str) -> float:
        return statistics.fmean(v[name] for v in self.values if not v["traced"])


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_window(seconds: float, once, between=lambda: None, minimum: int = 1) -> None:
    """Call ``once`` at least ``minimum`` times, and again while another call
    of median length still ends inside the window; call ``between`` after
    each call."""
    start = time.perf_counter()
    took: list[float] = []
    while True:
        t0 = time.perf_counter()
        once()
        took.append(time.perf_counter() - t0)
        between()
        if (len(took) >= minimum
                and time.perf_counter() - start + statistics.median(took) > seconds):
            return


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """Run a Python child in its own process group and wait for it; on timeout
    kill the whole group, pool workers included."""
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def time_setup(name: str, seed: int) -> float:
    """Import loragate and build the inputs in a fresh interpreter."""
    proc = run_child([str(HERE / "setup_probe.py"), "--workload", name,
                      "--seed", str(seed)])
    proc.check_returncode()
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_traced(seconds: float, once) -> None:
    """Untraced and traced repeats in turn, so that the tracing overhead is
    taken between neighbours."""
    turns = itertools.cycle((False, True))
    timed_window(seconds, lambda: once(next(turns)), minimum=2)


# ---------------------------------------------------------------------------
# in-process workloads


def run_in_process(workload, seed: int, seconds: float, trace: bool, reps: Repeats,
                   between) -> None:
    cfg = workload.config_for(seed)
    stream = workloads.make_inputs(workload, seed)
    probe = instrument.Probe().install()
    tracer = instrument.Tracer()

    def once(traced: bool) -> None:
        reps.attempted += 1
        probe.reset()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            result = harness.run_stream(stream, cfg, seed)
            run_s, cpu_s = time.perf_counter() - t0, cpu_seconds() - cpu0
        except Exception:  # noqa: BLE001 - a raising repeat is a failed operation
            reps.fail([traceback.format_exc()])
            return
        finally:
            tracer.uninstall()
        losses = [log.losses for log in result.logs]
        problems = (workloads.loss_problems(losses)
                    + [f"non-finite loss training task {t}"
                       for t in probe.nonfinite_tasks]
                    + workloads.matrix_problems(result.matrix.grid)
                    + reps.check_hash(result.trace_hash))
        if problems:
            reps.fail(problems)
            return
        reps.add(run_s, cpu_s, overall_accuracy(result.matrix), [probe.state()],
                 [tracer.state()] if traced else None)

    try:
        if not trace:
            timed_window(seconds, lambda: once(False), between)
            return
        run_traced(seconds, once)
        tracer.reset()
        tracer.install()
        try:
            workloads.make_inputs(workload, seed)
        finally:
            tracer.uninstall()
        generate_s = instrument.layer_metrics([tracer.state()])[0]["data.generate_s"]
        for layers in reps.layers:
            layers["data.generate_s"] = generate_s
    finally:
        probe.uninstall()


# ---------------------------------------------------------------------------
# CLI grid workload


def run_grid(workload, seed: int, seconds: float, trace: bool, reps: Repeats,
             between) -> None:
    cfg = workload.config_for(seed)

    def grid(jobs: int, traced: bool):
        """One ``loragate run``: its wall and CPU seconds, per-order records
        and the grid's own time window, or None if it failed."""
        reps.attempted += 1
        tmp = Path(tempfile.mkdtemp(prefix="grid-", dir=OUT))
        try:
            artifacts = tmp / "artifacts"
            cfg_path = tmp / "config.txt"
            cfg_path.write_text(format_config(replace(cfg, output_dir=str(artifacts))))
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            proc = run_child([str(HERE / "gridrun.py"), "--config", str(cfg_path),
                              "--jobs", str(jobs), "--trace", str(int(traced))])
            run_s, cpu_s = time.perf_counter() - t0, cpu_seconds() - cpu0
            problems, records, window = check_grid(cfg, seed, proc, artifacts)
        except Exception:  # noqa: BLE001 - a raising repeat is a failed operation
            reps.fail([traceback.format_exc()])
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if not problems:
            problems = reps.check_hash([r["run"]["trace_hash"] for r in records])
        if problems:
            reps.fail(problems)
            return None
        return run_s, cpu_s, records, window

    def once(traced: bool) -> None:
        done = grid(workload.grid_jobs, traced)
        if done is None:
            return
        run_s, cpu_s, records, _ = done
        reps.add(run_s, cpu_s, float(np.mean([r["oa"] for r in records])),
                 [r["probe"] for r in records],
                 [r["tracer"] for r in records] if traced else None)

    if not trace:
        timed_window(seconds, lambda: once(False), between)
        return
    run_traced(seconds, once)
    pool = grid(POOL_JOBS, False)
    if pool is None or not reps.layers:
        return
    run_s, _, records, (start, end) = pool
    busy = sum(r["run_single_s"] for r in records)
    for layers in reps.layers:
        layers["cli.pool_run_s"] = run_s
        layers["cli.pool_speedup"] = reps.median("run_s") / run_s
        layers["cli.worker_idle_share"] = 1.0 - busy / (POOL_JOBS * (end - start))


def check_grid(cfg, seed: int, proc, artifacts: Path):
    """Problems with one CLI grid run's outputs, its per-order records and the
    grid's time window."""
    if proc.returncode != 0:
        return ([f"loragate run exited {proc.returncode}: {proc.stderr[-2000:]}"],
                [], None)
    window = json.loads(proc.stdout.strip().splitlines()[-1])["window"]
    problems = []
    report = (artifacts / "report.txt").read_text()
    if "INCOMPLETE" in report:
        problems.append("report.txt flags an incomplete grid")
    records = []
    n_entries = cfg.n_tasks + cfg.n_tasks * (cfg.n_tasks + 1) // 2
    for order in range(cfg.n_orders):
        record = json.loads((artifacts / f"perfbench-o{order}-s{seed}.json").read_text())
        records.append(record)
        run = record["run"]
        problems += [f"order {order}: {p}" for p in
                     workloads.loss_problems(run["losses"])
                     + workloads.matrix_problems(np.array(run["grid"], dtype=float))]
        if record["probe"]["nonfinite_tasks"]:
            problems.append(f"order {order}: non-finite loss in an isolated run")
        if f"trace: {run['trace_hash']}" not in report:
            problems.append(f"order {order}: trace_hash missing from report.txt")
        rows = (artifacts / f"accuracy_o{order}_s{seed}.csv").read_text().split()[1:]
        accs = [float(r.split(",")[2]) for r in rows]
        if len(accs) != n_entries or not all(0.0 <= a <= 1.0 for a in accs):
            problems.append(f"order {order}: accuracy csv has bad entries")
        for pos in range(cfg.n_tasks):
            if not (artifacts / "masks" / f"o{order}_s{seed}" / f"task{pos}"
                    / "manifest.json").is_file():
                problems.append(f"order {order}: mask store of position {pos} missing")
    metric_rows = (artifacts / "metrics.csv").read_text().split()[1:]
    if sum(r.startswith("oa,") for r in metric_rows) != cfg.n_orders:
        problems.append("metrics.csv lacks an oa row per order")
    return problems, records, window


# ---------------------------------------------------------------------------
# results


def end_to_end(setup: list[float], reps: Repeats) -> dict:
    """Means over the run's untraced repeats.  A shared host runs fast and
    slow in spells of seconds to minutes; a median over repeats jumps between
    the two speeds as the slow share of a run crosses one half, while a mean
    moves in proportion to that share."""
    out = {name: reps.mean(name) for name in reps.values[0]
           if name not in ("oa", "traced")}
    out.update(setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb())
    return out


def per_layer(reps: Repeats) -> dict:
    # zero where no pool repeat ran
    out = {"cli.pool_run_s": 0.0, "cli.pool_speedup": 0.0, "cli.worker_idle_share": 0.0}
    for name in reps.layers[0]:
        # median_low keeps counts whole: it picks one repeat's value
        out[name] = statistics.median_low(layers[name] for layers in reps.layers)
    out["trace.overhead_s"] = reps.median("run_s", traced=True) - reps.median("run_s")
    out["harness.oa"] = reps.median("oa")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit or "unavailable (not a git checkout)",
    }


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def print_table(table: dict) -> None:
    print(f"{'span':32s} {'inclusive_s':>12s} {'self_s':>12s} {'count':>8s}")
    for name, (incl, own, count) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:32s} {incl:12.6f} {own:12.6f} {count:8d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    OUT.mkdir(exist_ok=True)

    env = environment()
    reps = Repeats()
    # set-up is timed between repeats, so its median spans the whole run
    setup: list[float] = []
    run = run_grid if workload.grid_jobs else run_in_process
    run(workload, args.seed, args.seconds, bool(args.trace), reps,
        lambda: setup.append(time_setup(workload.name, args.seed)))
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(time_setup(workload.name, args.seed))
    if not reps.values or (args.trace and not reps.layers):
        print("\n".join(reps.problems), file=sys.stderr)
        print(f"error: {reps.failed} of {reps.attempted} repeats failed", file=sys.stderr)
        return 1
    values = per_layer(reps) if args.trace else end_to_end(setup, reps)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repeats {reps.attempted} (failed {reps.failed})")
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"trace_hash: {reps.hashes[0]}")
    for problem in reps.problems:
        print(f"FAILED {problem}")
    if args.trace:
        print_table(reps.table)
        untraced = reps.median("run_s")
        overhead = values["trace.overhead_s"]
        print(f"tracing overhead: traced run_s {untraced + overhead:.4f} s - untraced "
              f"run_s {untraced:.4f} s = {overhead:.4f} s")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "trace_hash": reps.hashes[0],
              "setup_s": setup, "repeats": reps.values, "problems": reps.problems,
              "metrics": metrics}
    if args.trace:
        record.update(span_table=reps.table, spans=reps.spans)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(json.dumps({"correct": reps.failed == 0, "attempted": reps.attempted,
                      "failed": reps.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

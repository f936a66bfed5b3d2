"""Run ``loragate run`` with the benchmark's hooks installed.

Usage: python3 perfbench/gridrun.py --config FILE --jobs N --trace 0|1

This is ``python -m loragate.cli run --config FILE --jobs N`` plus the hooks
of ``instrument``.  Pool workers are forked from this process, so they inherit
the hooks; each worker writes what its hooks saw during one (order, seed) run
to ``perfbench-o<order>-s<seed>.json`` in the run's output directory.  The
last line printed is a JSON object with the time window of the grid.  BLAS threading is left as found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import instrument  # noqa: E402
from loragate import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    probe = instrument.Probe().install()
    tracer = instrument.Tracer().install() if args.trace else None
    results: dict = {}

    def wrap_run_stream(run_stream):
        def wrapper(*a, **kw):
            result = run_stream(*a, **kw)
            results.update(trace_hash=result.trace_hash,
                           grid=result.matrix.grid.tolist(),
                           losses=[log.losses.tolist() for log in result.logs])
            return result
        return wrapper

    def wrap_run_single(run_single):
        def wrapper(payload):
            _, order_index, seed, out = payload
            probe.reset()
            results.clear()
            if tracer:
                tracer.reset()
            t0 = time.perf_counter()
            summary = run_single(payload)
            record = {"probe": probe.state(), "run": dict(results), "oa": summary["oa"],
                      "run_single_s": time.perf_counter() - t0}
            if tracer:
                record["tracer"] = tracer.state()
            path = Path(out) / f"perfbench-o{order_index}-s{seed}.json"
            path.write_text(json.dumps(record))
            return summary
        return wrapper

    hooks = instrument.Hooks()
    hooks.patch(cli, "run_stream", wrap_run_stream)
    hooks.patch(cli, "_run_single", wrap_run_single)
    start = time.perf_counter()
    code = cli.main(["run", "--config", args.config, "--jobs", str(args.jobs)])
    end = time.perf_counter()
    print(json.dumps({"window": [start, end]}))
    return code


if __name__ == "__main__":
    sys.exit(main())

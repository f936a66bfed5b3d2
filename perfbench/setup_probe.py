"""Time one set-up in a fresh interpreter: import loragate, build the inputs.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N
Prints {"setup_s": seconds} as its last line.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    start = time.perf_counter()
    import loragate  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.make_inputs(workloads.WORKLOADS[args.workload], args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()

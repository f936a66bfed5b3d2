"""Every benchmark workload builds a valid config.

``perfbench/workloads.py`` builds its configs in code, and a config is
validated when it is made, so a workload the rules refuse breaks the benchmark
at import. This loads that file as it is and builds each workload's config for
a few seeds; each must also survive the text round trip that ``loragate run``
workloads go through.
"""

import importlib.util
import sys
from pathlib import Path

from loragate.config import format_config, parse_config_text

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_config_is_valid(monkeypatch):
    workloads = load_workloads(monkeypatch).WORKLOADS
    assert {"gated-default", "cli-grid"} <= workloads.keys()
    for workload in workloads.values():
        for seed in (1, 42, 1001):
            cfg = workload.config_for(seed)
            assert cfg.seeds == [seed]
            assert parse_config_text(format_config(cfg)) == cfg

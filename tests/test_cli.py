import csv
import fnmatch
import json
import multiprocessing
import os
import subprocess
import sys
import types
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import time_limit

import loragate.autodiff as autodiff
import loragate.cli as cli
import loragate.harness as harness
from loragate.cli import cmd_run, main, run_gradcheck
from loragate.data import generate_task_stream
from loragate.errors import StateError
from loragate.metrics import jaccard_overlap

TINY = """\
vocab_size = 24
d_model = 16
n_heads = 2
n_blocks = 2
n_tasks = 2
classes_per_task = 2
samples_per_class = 32
seq_len = 8
batch_size = 16
method = jump-inclora
seeds = 42
output_dir = {out}
"""


# 3 tasks x 2 orders x 2 seeds of 4 steps a task: the ramp starts at step 0,
# while every up factor is still zero, so every gate starts at the floor
FLOOR_GRID = TINY.replace("n_tasks = 2", "n_tasks = 3").replace(
    "seeds = 42", "seeds = 42,43\nn_orders = 2")
# the same grid at rank 2, a high learning rate and a ramp from halfway: most
# gates keep a part of their update (from the default 0.2, only one of 12
# tasks did, so a rounding change could sink every gate to the floor)
PARTLY_KEPT_GRID = FLOOR_GRID.replace(
    "method = jump-inclora",
    "method = jump-inclora\nrank = 2\nlearning_rate = 0.05\nstart_frac = 0.5",
).replace("samples_per_class = 32", "samples_per_class = 128")


# report.txt's message for each order of a seed whose worker exited with code 1
DEAD_WORKER = "StateError('helper process exited with code 1 before sending its results')"


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "exp.cfg"
    path.write_text((text or TINY).format(**fmt))
    return path


def module_env() -> dict:
    """The environment of a ``python -m loragate`` subprocess run from the tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestRun:
    def test_structural_outputs(self, tmp_path):
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, out=out)
        assert cmd_run(str(cfg)) == 0
        assert (out / "accuracy_o0_s42.csv").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "report.txt").exists()
        assert (out / "config.txt").exists()
        mask_dirs = sorted((out / "masks" / "o0_s42").iterdir())
        assert [d.name for d in mask_dirs] == ["task0", "task1"]

    def test_masks_dumped_as_uint8(self, tmp_path, monkeypatch):
        # each dump is a plain .npy of the support of the update merged in
        # the stream; solo runs merge one task each into models of their own
        merges = []
        merge_updates = harness._merge_updates

        def keeping_merges(model, merged, *args):
            merges.append((model, merged))
            merge_updates(model, merged, *args)

        monkeypatch.setattr(harness, "_merge_updates", keeping_merges)
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, out=out))) == 0
        in_stream = [merged for model, merged in merges
                     if sum(other is model for other, _ in merges) > 1]
        assert len(in_stream) == 2
        for pos, merged in enumerate(in_stream):
            task = out / "masks" / "o0_s42" / f"task{pos}"
            assert sorted(p.stem for p in task.glob("*.npy")) == sorted(merged)
            for lid, update in merged.items():
                mask = np.load(task / f"{lid}.npy", allow_pickle=False)
                assert mask.dtype == np.uint8
                np.testing.assert_array_equal(mask, (update != 0).astype(np.uint8))

    @pytest.mark.parametrize("method", ["jump-inclora", "inclora"])
    def test_manifest_holds_the_task_threshold(self, tmp_path, monkeypatch, method):
        # each position's store records its log's gate threshold, null when dense
        results, run_stream = [], cli.run_stream

        def keeping_results(*args, **kwargs):
            results.append(run_stream(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_stream", keeping_results)
        text = TINY.replace("jump-inclora", method)
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out))) == 0
        (result,) = results
        stored = [json.loads((out / "masks" / "o0_s42" / f"task{pos}" / "manifest.json")
                             .read_text())["meta"]["threshold"] for pos in range(2)]
        assert stored == [log.threshold for log in result.logs]
        gated = method == "jump-inclora"
        assert [isinstance(t, float) for t in stored] == [gated, gated]

    def test_accuracy_csv_schema(self, tmp_path):
        out = tmp_path / "artifacts"
        cmd_run(str(write_config(tmp_path, out=out)))
        lines = (out / "accuracy_o0_s42.csv").read_text().splitlines()
        assert lines[0] == "row,task_index,accuracy"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        # isolated row, then the lower triangle: 2 + 1 + 2 entries
        assert len(rows) == 5
        for _, _, acc in rows:
            assert 0.0 <= acc <= 1.0

    def test_metrics_csv_schema(self, tmp_path):
        out = tmp_path / "artifacts"
        cmd_run(str(write_config(tmp_path, out=out)))
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "metric,order,seed,value"
        runs = {}
        for name, order, seed, value in (ln.split(",") for ln in lines[1:]):
            runs.setdefault(f"order {order} seed {seed}", []).append((name, value))
        assert runs and all([name for name, _ in metrics] == list(cli.SUMMARY)
                            for metrics in runs.values())
        # each run's line in report.txt prints the same metrics, in the same order
        report = (out / "report.txt").read_text().splitlines()
        assert dict(ln.split(": ", 1) for ln in report if ln.startswith("order ")) == {
            run: " ".join(f"{name}={value}" for name, value in metrics)
            for run, metrics in runs.items()}

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, out=out)
        cmd_run(str(cfg))
        first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cmd_run(str(cfg))
        second = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first == second

    def test_smaller_rerun_leaves_nothing_stale(self, tmp_path, monkeypatch):
        # TINY is 2 tasks x 1 order x 1 seed
        for name, texts in (("fresh", [TINY]), ("rerun", [FLOOR_GRID, TINY])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            for text in texts:
                assert cmd_run(str(write_config(tmp_path, text=text, out="grid"))) == 0
        fresh, rerun = (
            {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            for out in (tmp_path / "fresh" / "grid", tmp_path / "rerun" / "grid"))
        assert sorted(rerun) == sorted(fresh)
        assert rerun == fresh

    def test_every_artifact_is_cleared_before_a_run(self, tmp_path):
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, text=FLOOR_GRID, out=out))) == 0
        written = [p.relative_to(out) for p in out.rglob("*") if p.is_file()]
        assert len(written) > 5
        for path in written:
            assert str(path) == "config.txt" or any(
                fnmatch.fnmatchcase(path.parts[0], pattern) for pattern in cli.ARTIFACTS), path

    def test_floor_warning_printed_once(self, tmp_path):
        cfg = write_config(tmp_path, text=FLOOR_GRID, out=tmp_path / "artifacts")
        floor = "all update entries are zero at threshold init"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cmd_run(str(cfg)) == 0
        assert sum(floor in str(w.message) for w in seen) > 1  # many gates hit the floor
        # the warnings of forked seed workers are shown here, once in all
        for jobs in ("1", "2"):
            done = subprocess.run([sys.executable, "-m", "loragate", "run", "--config",
                                   str(cfg), "--jobs", jobs],
                                  env=module_env(), capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stderr.count(f"UserWarning: {floor}") == 1, jobs

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        assert cmd_run(str(cfg)) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "n_heads = 0", "vocab_size = 0", "d_model = -16", "n_blocks = 0",
        "n_tasks = 0", "classes_per_task = 0",
        "samples_per_class = 0", "seq_len = 1", "seeds = 42,42",
        "n_orders = 3",  # more than the 2! orders of 2 tasks
        "n_orders = 0", "data_seed = -1", "seeds = -5",
        "n_tasks = 8"])  # 8 tasks x 2 classes do not fit in 24 tokens
    def test_degenerate_config_rejected_before_any_artifact(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text = "".join(ln + "\n" for ln in TINY.splitlines()
                       if not ln.startswith(key + " ")) + line + "\n"
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out))) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        # as many seeds as workers, then more
        for seeds in ([42, 43], [42, 43, 44]):
            serial_out = tmp_path / f"serial{len(seeds)}"
            par_out = tmp_path / f"parallel{len(seeds)}"
            text = TINY.replace("seeds = 42", "seeds = " + ",".join(map(str, seeds)))
            assert cmd_run(str(write_config(tmp_path, text=text, out=serial_out))) == 0
            assert cmd_run(str(write_config(tmp_path, text=text, out=par_out)), jobs=2) == 0
            names = ["metrics.csv", *(f"accuracy_o0_s{s}.csv" for s in seeds)]
            for name in names:
                assert (serial_out / name).read_bytes() == (par_out / name).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, out=out)), jobs=jobs) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_no_larger_than_the_grid(self, tmp_path, monkeypatch):
        # the most seed workers alive at once is min(jobs, seeds), and a
        # one-seed grid runs in this process, with no worker
        live, counts, forked = [0], [], harness.forked

        @contextmanager
        def counting(target, *args):
            worker = target is cli._seed_worker
            live[0] += worker
            counts.append(live[0])
            try:
                with forked(target, *args) as helper:
                    yield helper
            finally:
                live[0] -= worker

        monkeypatch.setattr(harness, "forked", counting)
        for seeds, jobs, most in (("42,43", 8, 2), ("42,43,44", 2, 2), ("42", 4, 0)):
            counts.clear()
            text = TINY.replace("seeds = 42", f"seeds = {seeds}")
            out = tmp_path / f"jobs{jobs}"
            assert cmd_run(str(write_config(tmp_path, text=text, out=out)), jobs=jobs) == 0
            assert max(counts, default=0) == most
            assert live == [0]

    def test_failed_run_reported_alike_at_any_job_count(self, tmp_path, monkeypatch):
        run_stream, train_solo = cli.run_stream, harness.SoloRuns.__missing__

        def fail_seed_43(stream, config, seed, **kwargs):
            if seed == 43:
                raise StateError("injected failure")
            return run_stream(stream, config, seed, **kwargs)

        def fail_solo_43(runs, task_id):
            if runs.seed == 43:
                raise StateError("injected failure")
            return train_solo(runs, task_id)

        # a 2-CPU host's answer whatever this host's count: at --jobs 1 the
        # 2-order grid splits each seed with a helper, at --jobs 2 it does not
        monkeypatch.setattr(harness, "second_core_free",
                            lambda: multiprocessing.parent_process() is None)
        # seed workers and helpers fork from this process, so they see the
        # patches too
        cases = ((cli, "run_stream", fail_seed_43, 1),
                 (harness.SoloRuns, "__missing__", fail_solo_43, 2))
        for owner, name, failing, n_orders in cases:
            text = TINY.replace("seeds = 42", f"seeds = 42,43\nn_orders = {n_orders}")
            outs = []
            with monkeypatch.context() as patched:
                patched.setattr(owner, name, failing)
                for jobs in (1, 2):
                    out = tmp_path / f"{name}{jobs}"
                    cfg = tmp_path / f"{name}{jobs}.cfg"
                    cfg.write_text(text.format(out=out))
                    assert cmd_run(str(cfg), jobs=jobs) == 1
                    outs.append(out)
            for file in ("report.txt", "metrics.csv"):
                assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()
            report = (outs[0] / "report.txt").read_text()
            failed = report.splitlines()[report.splitlines().index(
                "INCOMPLETE: some runs failed") + 1:]
            for o in range(n_orders):
                assert f"order {o} seed 42: oa=" in report
            assert failed == [f"  order {o} seed 43: StateError('injected failure')"
                              for o in range(n_orders)]

    def test_dead_worker_fails_its_seed_in_bounded_time(self, tmp_path, monkeypatch):
        # a worker that dies without raising fails every order of its seed,
        # and the grid still ends; seed workers fork no helper of their own
        out = tmp_path / "artifacts"
        log = tmp_path / "train_task.log"
        train_task, run_stream = harness.train_task, cli.run_stream

        def logging_train_task(*args, **kwargs):
            with log.open("a") as f:
                f.write(f"{os.getpid()} {os.getppid()}\n")
            return train_task(*args, **kwargs)

        def dying_seed_43(stream, config, seed, **kwargs):
            if seed == 43:
                os._exit(1)
            return run_stream(stream, config, seed, **kwargs)

        monkeypatch.setattr(harness, "train_task", logging_train_task)
        monkeypatch.setattr(cli, "run_stream", dying_seed_43)
        text = TINY.replace("seeds = 42", "seeds = 42,43\nn_orders = 2")
        with time_limit(60):
            assert cmd_run(str(write_config(tmp_path, text=text, out=out)), jobs=2) == 1
        assert multiprocessing.active_children() == []
        report = (out / "report.txt").read_text()
        assert "INCOMPLETE: some runs failed" in report
        for o in (0, 1):
            assert f"order {o} seed 43: {DEAD_WORKER}" in report
            assert (out / f"accuracy_o{o}_s42.csv").is_file()
        # seed 42: each task once alone, then position 1 of each order, all in
        # a worker of this process and none in a helper of a worker
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len(calls) == 4
        assert {ppid for _, ppid in calls} == {str(os.getpid())}

    def test_dead_worker_loses_no_other_seed(self, tmp_path, monkeypatch):
        # seed 43's worker dies at once, while seed 42's still runs
        out = tmp_path / "artifacts"
        run_stream = cli.run_stream

        def dying_seed_43(stream, config, seed, **kwargs):
            if seed == 43:
                os._exit(1)
            return run_stream(stream, config, seed, **kwargs)

        monkeypatch.setattr(cli, "run_stream", dying_seed_43)
        text = TINY.replace("seeds = 42", "seeds = 42,43\nn_orders = 2")
        with time_limit(60):
            assert cmd_run(str(write_config(tmp_path, text=text, out=out)), jobs=2) == 1
        assert multiprocessing.active_children() == []
        for o in (0, 1):
            assert (out / f"accuracy_o{o}_s42.csv").is_file()
            assert (out / f"isolation_o{o}_s42.csv").is_file()
            assert sorted(p.name for p in (out / "masks" / f"o{o}_s42").iterdir()) == [
                "task0", "task1"]
        report = (out / "report.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in report if line.startswith("order ")] == [
            "order 0 seed 42", "order 1 seed 42"]
        failed = report[report.index("INCOMPLETE: some runs failed") + 1:]
        assert [line.split(":")[0] for line in failed] == [
            "  order 0 seed 43", "  order 1 seed 43"]
        assert all(line.endswith(f": {DEAD_WORKER}") for line in failed)

    def test_isolated_runs_trained_once_per_grid(self, tmp_path, monkeypatch):
        text = TINY.replace("seeds = 42", "seeds = 42\nn_orders = 2")
        artifacts = ["metrics.csv", "accuracy_o0_s42.csv", "accuracy_o1_s42.csv"]
        run_stream = cli.run_stream

        def unshared(stream, config, seed, order=None, isolated=None):
            return run_stream(stream, config, seed, order=order)

        monkeypatch.setattr(cli, "run_stream", unshared)
        ref = tmp_path / "unshared"
        cmd_run(str(write_config(tmp_path, text=text, out=ref)))
        monkeypatch.setattr(cli, "run_stream", run_stream)

        log = tmp_path / "train_task.log"  # a solo run may train in a forked helper
        self.count_calls(monkeypatch, harness, "train_task", log)
        out = tmp_path / "shared"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out)), jobs=1) == 0
        calls = log.read_text().splitlines()
        n_orders, n_tasks = 2, 2
        # each task once alone; each order then trains every position but 0,
        # which replays its task's solo run
        assert len(calls) == n_tasks + n_orders * (n_tasks - 1)
        for name in artifacts:
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    @staticmethod
    def grid_outputs(tmp_path, monkeypatch, name, jobs, text=None) -> dict:
        """Every artifact of a run of ``text``, by default a 2-seed x 2-order
        run of TINY, by relative path; only the working directory differs by
        ``name``, so config.txt compares too."""
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        text = text or TINY.replace("seeds = 42", "seeds = 42,43\nn_orders = 2")
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.format(out="grid"))
        assert cmd_run(str(cfg), jobs=jobs) == 0
        out = tmp_path / name / "grid"
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    @staticmethod
    def count_calls(monkeypatch, owner, name, log: Path) -> None:
        """Append a line to ``log`` on each call of ``owner.name``, in this
        process or in a helper forked from it."""
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            with log.open("a") as f:
                f.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def test_task_stream_generated_once_per_grid(self, tmp_path, monkeypatch):
        run_stream = cli.run_stream

        def regenerating(stream, config, seed, **kwargs):
            fresh = generate_task_stream(  # a stream of its own for each run
                config.data_seed, config.n_tasks, config.samples_per_class,
                config.difficulty, config.classes_per_task, config.seq_len,
                config.vocab_size)
            return run_stream(fresh, config, seed, **kwargs)

        monkeypatch.setattr(cli, "run_stream", regenerating)
        ref = self.grid_outputs(tmp_path, monkeypatch, "regenerated", jobs=1)
        monkeypatch.setattr(cli, "run_stream", run_stream)

        for jobs in (1, 2):
            log = tmp_path / f"generated{jobs}.log"
            self.count_calls(monkeypatch, cli, "generate_task_stream", log)
            assert self.grid_outputs(tmp_path, monkeypatch, f"jobs{jobs}", jobs) == ref
            assert len(log.read_text().splitlines()) == 1
            monkeypatch.undo()

    def test_solo_runs_trained_once_under_a_pool(self, tmp_path, monkeypatch):
        outputs, calls = [], []
        for jobs in (1, 2):
            log = tmp_path / f"train_task{jobs}.log"
            self.count_calls(monkeypatch, harness, "train_task", log)
            outputs.append(self.grid_outputs(tmp_path, monkeypatch, f"jobs{jobs}", jobs))
            calls.append(log.read_text().splitlines())
            monkeypatch.undo()
        # per seed: each of the 2 tasks once alone, then position 1 of each order
        assert [len(c) for c in calls] == [8, 8]
        assert str(os.getpid()) not in calls[1]  # the seed workers trained
        assert outputs[0] == outputs[1]



class TestSplitSeed:
    """A seed of several orders at --jobs 1 split with one forked helper."""

    @pytest.mark.parametrize("grid", ["partly-kept", "floor"])
    def test_writes_and_warns_what_a_serial_seed_does(self, tmp_path, monkeypatch, grid):
        # every gate of the floor grid warns as it starts at the floor
        text = {"partly-kept": PARTLY_KEPT_GRID, "floor": FLOOR_GRID}[grid].replace(
            "n_orders = 2", "n_orders = 3")
        outputs, warned = {}, {}
        for split in (False, True):
            monkeypatch.setattr(harness, "second_core_free", lambda split=split: split)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outputs[split] = TestRun.grid_outputs(tmp_path, monkeypatch, f"split{split}",
                                                      jobs=1, text=text)
            warned[split] = sorted((str(w.message), w.category.__name__, w.filename, w.lineno)
                                   for w in caught)
        assert warned[True] == warned[False]
        assert (len(warned[False]) > 0) == (grid == "floor")
        names = sorted(outputs[False])
        assert sorted(outputs[True]) == names
        assert {"report.txt", "metrics.csv", "accuracy_o2_s43.csv",
                "isolation_o2_s43.csv", "masks/o2_s43/task2/manifest.json"} <= set(names)
        assert sum(name.endswith(".npy") for name in names) == 3 * 2 * 3 * 4
        for name in names:
            assert outputs[True][name] == outputs[False][name], name

    @pytest.mark.parametrize("n_orders", [3, 4])
    def test_each_solo_run_trained_once_after_one_fork(self, tmp_path, monkeypatch,
                                                       helper_solo_runs, n_orders):
        # one log for both processes: the fork, each solo run, each training,
        # each value this process receives from the helper
        log = tmp_path / "events.log"
        forked, train_task = harness.forked, harness.train_task
        train_solo, recv = harness.SoloRuns.__missing__, harness.Helper.recv

        def write(line):
            with log.open("a") as f:
                f.write(f"{line}\n")

        def logging_forked(*args):
            write("fork")
            return forked(*args)

        def logging_train_solo(runs, task_id):
            write(f"solo {runs.seed} {task_id} {os.getpid()}")
            return train_solo(runs, task_id)

        def logging_train_task(*args, **kwargs):
            write(f"train {os.getpid()}")
            return train_task(*args, **kwargs)

        def logging_recv(helper):
            write(f"recv {os.getpid()}")
            return recv(helper)

        monkeypatch.setattr(harness, "forked", logging_forked)
        monkeypatch.setattr(harness.SoloRuns, "__missing__", logging_train_solo)
        monkeypatch.setattr(harness, "train_task", logging_train_task)
        monkeypatch.setattr(harness.Helper, "recv", logging_recv)
        text = FLOOR_GRID.replace("n_orders = 2", f"n_orders = {n_orders}")
        assert cmd_run(str(write_config(tmp_path, text=text, out=tmp_path / "out"))) == 0
        events = log.read_text().splitlines()
        # per seed: one fork, 3 tasks alone, positions 1 and 2 of each order,
        # each solo run logged just before its training, and two values
        # received here: the helper's solo runs, then its orders' outcomes
        per_seed = 1 + 2 * 3 + n_orders * 2 + 2
        assert len(events) == 2 * per_seed
        here = str(os.getpid())
        for seed, block in ((42, events[:per_seed]), (43, events[per_seed:])):
            assert block[0] == "fork" and "fork" not in block[1:]
            assert not block[1].startswith("train")
            solo = [line.split()[1:] for line in block if line.startswith("solo")]
            assert sorted(tid for s, tid, _ in solo) == ["0", "1", "2"]
            assert {s for s, _, _ in solo} == {str(seed)}
            assert len({pid for _, _, pid in solo}) == 2  # some in each process
            mine = [line.split()[0] for line in block if line.split()[-1] == here]
            if n_orders % 2:
                # only order 0's first task alone, then order 0's stream, and
                # the helper's runs only at the isolated row
                assert [tid for _, tid, pid in solo if pid == here] == ["0"]
                assert mine[:5] == ["solo", "train", "train", "train", "recv"]
            else:
                # half the runs in each process, swapped before any order
                assert [tid for _, tid, pid in solo if pid == here] == ["0", "2"]
                assert mine[:5] == ["solo", "train", "solo", "train", "recv"]

    # the ids without a count are at 3 orders
    @pytest.mark.parametrize("phase, n_orders", [
        pytest.param("solo", 3, id="solo"), pytest.param("orders", 3, id="orders"),
        pytest.param("solo", 4, id="solo-4"), pytest.param("orders", 4, id="orders-4")])
    def test_dead_helper_loses_only_its_own_orders(self, tmp_path, monkeypatch,
                                                   helper_solo_runs, phase, n_orders):
        # seed 43's helper dies while it trains its solo runs or while it runs
        # its first order; either way this process trains the runs it misses
        # and runs its own orders, so only the helper's orders are lost
        caller, run_single = os.getpid(), cli._run_single
        train_solo = harness.SoloRuns.__missing__

        def dying_in_solo_phase(runs, task_id):
            if runs.seed == 43 and os.getpid() != caller:
                os._exit(1)
            return train_solo(runs, task_id)

        def dying_in_order_phase(payload):
            if payload[2] == 43 and os.getpid() != caller:
                os._exit(1)
            return run_single(payload)

        if phase == "solo":
            monkeypatch.setattr(harness.SoloRuns, "__missing__", dying_in_solo_phase)
        else:
            monkeypatch.setattr(cli, "_run_single", dying_in_order_phase)
        lost = [1] if n_orders == 3 else [1, 3]  # the helper's orders
        out = tmp_path / "artifacts"
        text = FLOOR_GRID.replace("n_orders = 2", f"n_orders = {n_orders}")
        with time_limit(60):
            assert cmd_run(str(write_config(tmp_path, text=text, out=out))) == 1
        assert multiprocessing.active_children() == []
        kept = ([(o, 42) for o in range(n_orders)]
                + [(o, 43) for o in range(n_orders) if o not in lost])
        report = (out / "report.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in report if line.startswith("order ")] == [
            f"order {o} seed {s}" for o, s in sorted(kept)]
        failed = report[report.index("INCOMPLETE: some runs failed") + 1:]
        assert [line.split(":")[0] for line in failed] == [
            f"  order {o} seed 43" for o in lost]
        assert all("exited with code 1" in line for line in failed)
        for o, s in kept:
            assert (out / f"accuracy_o{o}_s{s}.csv").is_file()
            assert (out / f"isolation_o{o}_s{s}.csv").is_file()
            assert sorted(p.name for p in (out / "masks" / f"o{o}_s{s}").iterdir()) == [
                "task0", "task1", "task2"]


class TestMallocThresholds:
    @staticmethod
    def fake_libc(monkeypatch, accepts):
        """Route ``ctypes.CDLL`` to a libc whose ``mallopt`` records its calls."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return int(accepts)

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=mallopt))
        return calls

    def test_run_pins_both_thresholds(self, tmp_path, monkeypatch):
        calls = self.fake_libc(monkeypatch, accepts=True)
        assert cmd_run(str(write_config(tmp_path, out=tmp_path / "artifacts"))) == 0
        assert calls == [(-3, 64 << 20), (-1, 256 << 20)]  # mmap, then trim

    def test_rejected_mmap_threshold_sets_no_trim_threshold(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, accepts=False)
        cli._pin_malloc_thresholds()
        assert calls == [(-3, 64 << 20)]

    @pytest.mark.parametrize("missing", ["symbol", "library"])
    def test_noop_without_mallopt(self, monkeypatch, missing):
        def cdll(name):
            if missing == "library":
                raise OSError("no C library to load")
            return types.SimpleNamespace()  # a libc without mallopt

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._pin_malloc_thresholds()


class TestGradcheck:
    def test_clean_build_passes(self, capsys):
        assert run_gradcheck() == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_perturbed_kernel_sign_fails(self, monkeypatch, capsys):
        original = autodiff.threshold_pseudograd
        monkeypatch.setattr(autodiff, "threshold_pseudograd",
                            lambda x, t, b: -original(x, t, b))
        assert run_gradcheck() == 1
        assert "FAIL" in capsys.readouterr().out

    def test_reports_error_per_operation(self, capsys):
        run_gradcheck()
        out = capsys.readouterr().out
        for name in ("matmul", "frobenius_sq", "threshold_pseudograd_casewise"):
            assert name in out


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_dumps(run_dir) -> list[dict]:
    """The masks of one (order, seed) run per position, read with ``np.load``."""
    return [{p.stem: np.load(p, allow_pickle=False) for p in (run_dir / f"task{t}").glob("*.npy")}
            for t in range(len(list(run_dir.iterdir())))]


class TestIsolationTable:
    HEADER = ["position", "task_id", "layer", "kept_fraction", "mean_prior_jaccard",
              "expected_jaccard", "excess"]

    def run_once(self, tmp_path, text=TINY):
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out))) == 0
        return out

    def test_schema(self, tmp_path):
        out = self.run_once(tmp_path, text=FLOOR_GRID)
        for o in range(2):
            for seed in (42, 43):
                csv_path = out / f"isolation_o{o}_s{seed}.csv"
                assert csv_path.read_text().splitlines()[0] == ",".join(self.HEADER)
                rows = read_csv(csv_path)
                layers = ["blk0.q", "blk0.v", "blk1.q", "blk1.v"]
                assert [(r["position"], r["layer"]) for r in rows] == [
                    (str(t), lid) for t in range(3) for lid in layers]
                for r in rows:
                    manifest = (out / "masks" / f"o{o}_s{seed}" / f"task{r['position']}"
                                / "manifest.json")
                    assert int(r["task_id"]) == json.loads(manifest.read_text())[
                        "meta"]["task_id"]
                    assert 0.0 <= float(r["kept_fraction"]) <= 1.0
                    tail = [r[k] for k in self.HEADER[4:]]
                    assert (tail == ["na"] * 3) == (r["position"] == "0")

    def test_rows_recomputed_from_the_dumps(self, tmp_path):
        out = self.run_once(tmp_path, text=PARTLY_KEPT_GRID)
        kept_values = set()
        for csv_path in sorted(out.glob("isolation_*.csv")):
            masks = load_dumps(out / "masks" / csv_path.stem.removeprefix("isolation_"))
            for r in read_csv(csv_path):
                t, lid = int(r["position"]), r["layer"]
                kept = [np.count_nonzero(m[lid]) / m[lid].size for m in masks]
                kept_values.add(kept[t])
                assert float(r["kept_fraction"]) == pytest.approx(kept[t], abs=1e-12)
                if t == 0:
                    continue
                prior = np.mean([jaccard_overlap(masks[t][lid], masks[i][lid])
                                 for i in range(t)])
                p = kept[t]
                expected = np.mean([p * q / (p + q - p * q) if p + q > 0 else 0.0
                                    for q in kept[:t]])
                assert float(r["mean_prior_jaccard"]) == pytest.approx(prior, abs=1e-12)
                assert float(r["expected_jaccard"]) == pytest.approx(expected, abs=1e-12)
                assert float(r["excess"]) == pytest.approx(prior - expected, abs=1e-12)
        assert len(kept_values) > 2  # neither all kept nor all dropped

    def test_summaries_match_the_all_pairs_mean(self, tmp_path):
        out = self.run_once(tmp_path, text=PARTLY_KEPT_GRID)
        metrics = {(r["metric"], r["order"], r["seed"]): float(r["value"])
                   for r in read_csv(out / "metrics.csv")}
        for run_dir in sorted((out / "masks").iterdir()):
            masks = load_dumps(run_dir)
            order, seed = run_dir.name[1:].split("_s")
            pairs = [jaccard_overlap(masks[i][lid], masks[j][lid])
                     for lid in sorted(masks[0])
                     for i in range(len(masks)) for j in range(i + 1, len(masks))]
            sparsities = [1 - np.count_nonzero(m[lid]) / m[lid].size
                          for lid in sorted(masks[0]) for m in masks]
            assert metrics["mean_pairwise_jaccard", order, seed] == pytest.approx(
                np.mean(pairs), abs=1e-12)
            assert metrics["mean_sparsity", order, seed] == pytest.approx(
                np.mean(sparsities), abs=1e-12)

    def test_gating_disabled_keeps_everything(self, tmp_path):
        out = self.run_once(tmp_path, TINY.replace("jump-inclora", "inclora"))
        rows = read_csv(out / "isolation_o0_s42.csv")
        assert rows and all(r["kept_fraction"] == "1.0" for r in rows)
        assert [r["excess"] for r in rows if r["position"] != "0"] == ["0.0"] * 4

    def test_single_task_all_not_applicable(self, tmp_path):
        out = self.run_once(tmp_path, TINY.replace("n_tasks = 2", "n_tasks = 1"))
        rows = read_csv(out / "isolation_o0_s42.csv")
        assert len(rows) == 4
        for r in rows:
            assert [r[k] for k in self.HEADER[4:]] == ["na"] * 3


class TestMain:
    def test_usage_error_without_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_gradcheck_subcommand(self, capsys):
        assert main(["gradcheck"]) == 0
        capsys.readouterr()

    def test_analyze_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--dir", "X"])
        assert exc.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err

    def test_runs_as_module(self):
        done = subprocess.run([sys.executable, "-m", "loragate", "gradcheck"],
                              env=module_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "gradient checks passed" in done.stdout

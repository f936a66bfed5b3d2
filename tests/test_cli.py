import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import loragate.autodiff as autodiff
import loragate.cli as cli
import loragate.harness as harness
from loragate import arrayio
from loragate.cli import cmd_analyze, cmd_run, main, run_gradcheck
from loragate.data import generate_task_stream
from loragate.errors import StateError

TINY = """\
vocab_size = 24
d_model = 16
n_heads = 2
n_blocks = 2
max_seq_len = 10
n_tasks = 2
classes_per_task = 2
samples_per_class = 32
seq_len = 8
batch_size = 16
method = jump-inclora
seeds = 42
output_dir = {out}
"""


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "exp.cfg"
    path.write_text((text or TINY).format(**fmt))
    return path


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
        results = []
        run_stream = cli.run_stream

        def keeping(*args, **kwargs):
            results.append(run_stream(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_stream", keeping)
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, out=out))) == 0
        (result,) = results
        for pos, masks in enumerate(result.masks):
            arrays, _ = arrayio.load_arrays(out / "masks" / "o0_s42" / f"task{pos}")
            assert arrays.keys() == masks.keys()
            for lid, mask in masks.items():
                assert arrays[lid].dtype == np.uint8
                np.testing.assert_array_equal(arrays[lid], mask)

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
        names = {ln.split(",")[0] for ln in lines[1:]}
        assert {"oa", "bwt", "fwt", "mean_sparsity", "mean_pairwise_jaccard"} <= names

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "artifacts"
        cfg = write_config(tmp_path, out=out)
        cmd_run(str(cfg))
        first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cmd_run(str(cfg))
        second = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first == second

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        assert cmd_run(str(cfg)) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "n_heads = 0", "vocab_size = 0", "d_model = -16", "n_blocks = 0",
        "max_seq_len = 0", "n_tasks = 0", "classes_per_task = 0",
        "samples_per_class = 0", "seq_len = 1", "seeds = 42,42",
        "n_orders = 3",  # more than the 2! orders of 2 tasks
        "n_tasks = 8"])  # 8 tasks x 2 classes do not fit in 24 tokens
    def test_degenerate_config_rejected_before_any_artifact(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text = "".join(ln + "\n" for ln in TINY.splitlines()
                       if not ln.startswith(key + " ")) + line + "\n"
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out))) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_output_root_override(self, tmp_path, monkeypatch):
        root = tmp_path / "root"
        monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(root))
        cfg = write_config(tmp_path, text=TINY.replace("{out}", "nested/run"))
        assert cmd_run(str(cfg)) == 0
        assert (root / "nested" / "run" / "metrics.csv").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial_out = tmp_path / "serial"
        par_out = tmp_path / "parallel"
        text = TINY.replace("seeds = 42", "seeds = 42,43")
        cmd_run(str(write_config(tmp_path, text=text, out=serial_out)))
        (tmp_path / "exp.cfg").unlink()
        cmd_run(str(write_config(tmp_path, text=text, out=par_out)), jobs=2)
        for name in ("metrics.csv", "accuracy_o0_s42.csv", "accuracy_o0_s43.csv"):
            assert (serial_out / name).read_bytes() == (par_out / name).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "artifacts"
        assert cmd_run(str(write_config(tmp_path, out=out)), jobs=jobs) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_no_larger_than_the_grid(self, tmp_path, monkeypatch):
        sizes = []
        pool = cli.multiprocessing.Pool

        def recording_pool(processes):
            sizes.append(processes)
            return pool(processes)

        monkeypatch.setattr(cli.multiprocessing, "Pool", recording_pool)
        two_runs = TINY.replace("seeds = 42", "seeds = 42,43")
        assert cmd_run(str(write_config(tmp_path, text=two_runs,
                                        out=tmp_path / "two")), jobs=8) == 0
        assert cmd_run(str(write_config(tmp_path, out=tmp_path / "one")), jobs=4) == 0
        assert sizes == [2]  # one run needs no pool

    def test_failed_run_reported_alike_at_any_job_count(self, tmp_path, monkeypatch):
        run_stream = cli.run_stream

        def fail_seed_43(stream, config, seed, **kwargs):
            if seed == 43:
                raise StateError("injected failure")
            return run_stream(stream, config, seed, **kwargs)

        # pool workers fork from this process, so they see the patch too
        monkeypatch.setattr(cli, "run_stream", fail_seed_43)
        text = TINY.replace("seeds = 42", "seeds = 42,43")
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            cfg = tmp_path / f"jobs{jobs}.cfg"
            cfg.write_text(text.format(out=out))
            assert cmd_run(str(cfg), jobs=jobs) == 1
            outs.append(out)
        for name in ("report.txt", "metrics.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        report = (outs[0] / "report.txt").read_text()
        assert "order 0 seed 42: OA=" in report
        assert "INCOMPLETE: some runs failed" in report
        assert "order 0 seed 43: StateError('injected failure')" in report

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

        calls = []
        train_task = harness.train_task

        def counting_train_task(*args, **kwargs):
            calls.append(1)
            return train_task(*args, **kwargs)

        monkeypatch.setattr(harness, "train_task", counting_train_task)
        out = tmp_path / "shared"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out)), jobs=1) == 0
        n_orders, n_tasks = 2, 2
        # each task once alone; each order then trains every position but 0,
        # which replays its task's solo run
        assert len(calls) == n_tasks + n_orders * (n_tasks - 1)
        for name in artifacts:
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    @staticmethod
    def grid_outputs(tmp_path, monkeypatch, name, jobs) -> dict:
        """Every artifact of a 2-seed x 2-order run of TINY, by relative path;
        only the output root differs by ``name``, so config.txt compares too."""
        monkeypatch.setenv(cli.ENV_OUTPUT_ROOT, str(tmp_path / name))
        text = TINY.replace("seeds = 42", "seeds = 42,43\nn_orders = 2")
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.format(out="grid"))
        assert cmd_run(str(cfg), jobs=jobs) == 0
        out = tmp_path / name / "grid"
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    @staticmethod
    def count_calls(monkeypatch, owner, name, log: Path) -> None:
        """Append a line to ``log`` on each call of ``owner.name``, in this
        process or in a pool worker forked from it."""
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
        assert str(os.getpid()) not in calls[1]  # the pool workers trained
        assert outputs[0] == outputs[1]


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


class TestAnalyze:
    def run_once(self, tmp_path, method_line="method = jump-inclora", tasks=2):
        out = tmp_path / "artifacts"
        text = TINY.replace("method = jump-inclora", method_line)
        text = text.replace("n_tasks = 2", f"n_tasks = {tasks}")
        cmd_run(str(write_config(tmp_path, text=text, out=out)))
        return out

    def test_emits_sparsity_and_overlap(self, tmp_path):
        out = self.run_once(tmp_path)
        assert cmd_analyze(str(out), "all") == 0
        csv = out / "analysis_o0_s42_all.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "task,layer,sparsity,mean_prior_jaccard"
        assert len(lines) == 1 + 2 * 4  # 2 tasks x 4 adapted layers
        first_task = [ln for ln in lines[1:] if ln.startswith("0,")]
        assert all(ln.endswith(",na") for ln in first_task)

    def test_gating_disabled_gives_zero_sparsity(self, tmp_path):
        out = self.run_once(tmp_path, method_line="method = inclora")
        cmd_analyze(str(out), "all")
        lines = (out / "analysis_o0_s42_all.csv").read_text().splitlines()[1:]
        for ln in lines:
            assert float(ln.split(",")[2]) == 0.0

    def test_single_task_all_not_applicable(self, tmp_path):
        out = self.run_once(tmp_path, tasks=1)
        cmd_analyze(str(out), "all")
        lines = (out / "analysis_o0_s42_all.csv").read_text().splitlines()[1:]
        assert lines and all(ln.endswith(",na") for ln in lines)

    def test_middle_layer_selector(self, tmp_path):
        out = self.run_once(tmp_path)
        cmd_analyze(str(out), "middle")
        lines = (out / "analysis_o0_s42_middle.csv").read_text().splitlines()[1:]
        layers = {ln.split(",")[1] for ln in lines}
        assert layers == {"blk1.q", "blk1.v"}

    def test_middle_layer_without_the_run_config(self, tmp_path):
        out = self.run_once(tmp_path)
        csv = out / "analysis_o0_s42_middle.csv"
        cmd_analyze(str(out), "middle")
        expected = csv.read_bytes()
        csv.unlink()
        (out / "config.txt").unlink()
        assert cmd_analyze(str(out), "middle") == 0
        assert csv.read_bytes() == expected

    def test_float32_dumps_analyse_alike(self, tmp_path):
        # dumps written before masks were stored as uint8 read the same
        out = self.run_once(tmp_path)
        csv = out / "analysis_o0_s42_all.csv"
        cmd_analyze(str(out), "all")
        expected = csv.read_bytes()
        for task in (out / "masks" / "o0_s42").iterdir():
            arrays, meta = arrayio.load_arrays(task)
            arrayio.save_arrays(task, {lid: m.astype(np.float32)
                                       for lid, m in arrays.items()}, meta)
            assert arrayio.load_arrays(task)[0]["blk0.q"].dtype == np.float32
        assert cmd_analyze(str(out), "all") == 0
        assert csv.read_bytes() == expected

    def test_specific_layer_selector(self, tmp_path):
        out = self.run_once(tmp_path)
        cmd_analyze(str(out), "blk0.v")
        lines = (out / "analysis_o0_s42_blk0_v.csv").read_text().splitlines()[1:]
        assert {ln.split(",")[1] for ln in lines} == {"blk0.v"}

    def test_unknown_layer_rejected(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        assert cmd_analyze(str(out), "blk9.q") == 2
        assert "unknown layer" in capsys.readouterr().err

    def test_missing_masks_rejected(self, tmp_path, capsys):
        assert cmd_analyze(str(tmp_path), "all") == 2
        assert "mask" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["no_manifest", "no_bin", "truncated_bin",
                                        "bad_task_dir", "no_arrays", "entry_without_file",
                                        "fewer_layers"])
    def test_damaged_store_rejected(self, tmp_path, capsys, damage):
        out = self.run_once(tmp_path)
        task = out / "masks" / "o0_s42" / "task1"
        manifest = json.loads((task / "manifest.json").read_text())
        if damage == "no_manifest":
            (task / "manifest.json").unlink()
        elif damage == "no_arrays":
            (task / "manifest.json").write_text("{}")
        elif damage == "entry_without_file":
            del manifest["arrays"]["blk0.q"]["file"]
            (task / "manifest.json").write_text(json.dumps(manifest))
        elif damage == "fewer_layers":
            del manifest["arrays"]["blk0.v"]
            (task / "manifest.json").write_text(json.dumps(manifest))
        elif damage == "no_bin":
            (task / "blk0.q.bin").unlink()
        elif damage == "truncated_bin":
            raw = (task / "blk0.q.bin").read_bytes()
            (task / "blk0.q.bin").write_bytes(raw[:-3])
        else:
            (task.parent / "taskX").mkdir()
        assert main(["analyze", "--dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read mask dumps in ")
        assert "Traceback" not in err

    def test_idempotent(self, tmp_path):
        out = self.run_once(tmp_path)
        cmd_analyze(str(out), "all")
        first = (out / "analysis_o0_s42_all.csv").read_bytes()
        cmd_analyze(str(out), "all")
        assert (out / "analysis_o0_s42_all.csv").read_bytes() == first


class TestMain:
    def test_usage_error_without_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_gradcheck_subcommand(self, capsys):
        assert main(["gradcheck"]) == 0
        capsys.readouterr()

    def test_runs_as_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "loragate", "gradcheck"],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "gradient checks passed" in done.stdout

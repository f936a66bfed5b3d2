import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loragate.autodiff as autodiff
import loragate.cli as cli
import loragate.harness as harness
from loragate.cli import cmd_analyze, cmd_run, main, run_gradcheck
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
        "samples_per_class = 0", "seq_len = 1", "seeds = 42,42"])
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

    def test_task_stream_generated_once_per_grid(self, tmp_path, monkeypatch):
        text = TINY.replace("seeds = 42", "seeds = 42,43\nn_orders = 2")
        artifacts = ["metrics.csv"] + [f"accuracy_o{o}_s{s}.csv"
                                       for o in (0, 1) for s in (42, 43)]
        generated = []
        generate = cli.generate_task_stream

        def counting_generate(*args, **kwargs):
            generated.append(1)
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_task_stream", counting_generate)
        run_stream = cli.run_stream

        def regenerating(*args, **kwargs):
            cli._STREAMS.clear()  # the next run generates its stream again
            return run_stream(*args, **kwargs)

        monkeypatch.setattr(cli, "run_stream", regenerating)
        ref = tmp_path / "regenerated"
        assert cmd_run(str(write_config(tmp_path, text=text, out=ref)), jobs=1) == 0
        assert len(generated) == 4
        monkeypatch.setattr(cli, "run_stream", run_stream)

        generated.clear()
        out = tmp_path / "shared"
        assert cmd_run(str(write_config(tmp_path, text=text, out=out)), jobs=1) == 0
        assert len(generated) == 1
        for name in artifacts:
            assert (out / name).read_bytes() == (ref / name).read_bytes()


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

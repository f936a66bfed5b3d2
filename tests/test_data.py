import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loragate.data import generate_task_stream
from loragate.errors import ConfigError, StateError
from loragate.rng import named_rng

SPLITS = ("train", "val", "test")


def reference_splits(seed, n_tasks, samples_per_class, difficulty, classes_per_task,
                     seq_len, vocab_size):
    """Every task's splits, drawn row by row through ``Generator.choice``: the
    plain form of the draws ``generate_task_stream`` makes through cheaper calls."""
    background_size = vocab_size // 2
    band_width = (vocab_size - background_size) // n_tasks
    signal_count = min(3, seq_len - 2)
    eval_per_class = max(8, samples_per_class // 4)
    sizes = {"train": samples_per_class, "val": eval_per_class, "test": eval_per_class}
    streams = []
    for t in range(n_tasks):
        rng = named_rng(seed, f"data/task{t}")
        band = rng.permutation(np.arange(background_size + t * band_width,
                                         background_size + (t + 1) * band_width))
        signatures = {c: sorted(int(tok) for tok in band[c::classes_per_task])
                      for c in range(classes_per_task)}

        def fresh_rows(labels):
            tokens = rng.integers(0, background_size, size=(len(labels), seq_len))
            for row, c in enumerate(labels):
                pos = rng.choice(seq_len, size=signal_count + 1, replace=False)
                sig = signatures[int(c)]
                tokens[row, pos[:signal_count]] = rng.choice(sig, size=signal_count,
                                                             replace=True)
                if classes_per_task > 1:
                    other = int(rng.integers(0, classes_per_task - 1))
                    other = other + 1 if other >= c else other
                    tokens[row, pos[signal_count]] = rng.choice(signatures[other])
            return tokens

        per_class_pool = max(32, samples_per_class // 16)
        pool = fresh_rows(np.repeat(np.arange(classes_per_task), per_class_pool))
        splits = {}
        for split, size in sizes.items():
            labels = np.repeat(np.arange(classes_per_task), size)
            if split == "train":
                picks = np.concatenate([
                    rng.integers(c * per_class_pool, (c + 1) * per_class_pool, size=size)
                    for c in range(classes_per_task)
                ])
                tokens = pool[picks]
                if 0.2 * difficulty > 0:
                    flip = rng.random(len(labels)) < 0.2 * difficulty
                    labels = np.where(flip, rng.integers(0, classes_per_task,
                                                         size=len(labels)), labels)
            else:
                tokens = fresh_rows(labels)
            order = rng.permutation(len(labels))
            splits[split] = (tokens[order].astype(np.int64),
                             (labels[order] + t * classes_per_task).astype(np.int64))
        streams.append(splits)
    return streams


@st.composite
def stream_args(draw):
    n_tasks = draw(st.integers(1, 4))
    classes_per_task = draw(st.integers(1, 4))
    least_vocab = 2 * n_tasks * classes_per_task  # every band fits its classes
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_tasks=n_tasks,
        samples_per_class=draw(st.integers(1, 48)),
        difficulty=draw(st.sampled_from([0.0, 0.25, 1.0])),
        classes_per_task=classes_per_task,
        seq_len=draw(st.integers(2, 24)),
        vocab_size=draw(st.integers(least_vocab, least_vocab + 48)),
    )


class TestGeneration:
    def test_same_seed_identical_streams(self):
        s1 = generate_task_stream(5, 3, samples_per_class=16)
        s2 = generate_task_stream(5, 3, samples_per_class=16)
        for t1, t2 in zip(s1.tasks, s2.tasks):
            for split in ("train", "val", "test"):
                np.testing.assert_array_equal(t1.splits[split][0], t2.splits[split][0])
                np.testing.assert_array_equal(t1.splits[split][1], t2.splits[split][1])

    def test_different_seed_differs(self):
        s1 = generate_task_stream(5, 2, samples_per_class=16)
        s2 = generate_task_stream(6, 2, samples_per_class=16)
        assert not np.array_equal(s1.tasks[0].splits["train"][0],
                                  s2.tasks[0].splits["train"][0])

    @pytest.mark.parametrize("n_tasks", [4, 15])
    def test_benchmark_length_structures(self, n_tasks):
        stream = generate_task_stream(1, n_tasks, samples_per_class=8,
                                      classes_per_task=1, vocab_size=64)
        assert len(stream) == n_tasks
        assert stream.num_classes == n_tasks

    def test_class_ranges_disjoint(self):
        stream = generate_task_stream(2, 4, samples_per_class=8)
        seen = set()
        for task in stream.tasks:
            ids = set(task.classes)
            assert not (ids & seen)
            seen |= ids
            labels = set(task.splits["train"][1].tolist())
            assert labels <= ids

    def test_signature_bands_disjoint_across_tasks(self):
        stream = generate_task_stream(2, 4, samples_per_class=8)
        background = stream.vocab_size // 2  # tokens below it are shared by all tasks
        seen = set()
        for task in stream.tasks:
            band = {int(tok) for tokens, _ in task.splits.values()
                    for tok in tokens[tokens >= background]}
            assert band
            assert not (band & seen)
            seen |= band

    def test_splits_disjoint_within_task(self):
        stream = generate_task_stream(3, 2, samples_per_class=32)
        task = stream.tasks[0]
        rows = {split: {t.tobytes() for t in task.splits[split][0]}
                for split in ("train", "val", "test")}
        assert not (rows["train"] & rows["test"])
        assert not (rows["train"] & rows["val"])

    def test_eval_labels_balanced(self):
        # train labels carry difficulty noise; val and test stay clean
        stream = generate_task_stream(3, 2, samples_per_class=20, classes_per_task=4)
        for split in ("val", "test"):
            _, labels = stream.tasks[1].splits[split]
            _, counts = np.unique(labels, return_counts=True)
            assert len(counts) == 4 and (counts == counts[0]).all()

    def test_train_rows_come_from_template_pool(self):
        stream = generate_task_stream(3, 1, samples_per_class=512, classes_per_task=2)
        tokens, _ = stream.tasks[0].splits["train"]
        unique = {t.tobytes() for t in tokens}
        assert len(unique) < len(tokens) / 4  # heavy template reuse

    def test_zero_difficulty_keeps_labels_clean(self):
        stream = generate_task_stream(3, 1, samples_per_class=64,
                                      classes_per_task=2, difficulty=0.0)
        tokens, labels = stream.tasks[0].splits["train"]
        # with no flips, identical template rows always share one label
        by_row = {}
        for t, y in zip(tokens, labels):
            by_row.setdefault(t.tobytes(), set()).add(int(y))
        assert all(len(ys) == 1 for ys in by_row.values())

    def test_difficulty_bounds_checked(self):
        with pytest.raises(ConfigError):
            generate_task_stream(0, 2, difficulty=1.5)
        with pytest.raises(ConfigError):
            generate_task_stream(0, 0)

    def test_vocab_capacity_checked(self):
        with pytest.raises(ConfigError):
            generate_task_stream(0, 8, classes_per_task=5, vocab_size=32)


class TestDrawSequence:
    @settings(max_examples=60, deadline=None)
    @given(stream_args())
    def test_matches_reference_draws(self, args):
        stream = generate_task_stream(**args)
        for task, reference in zip(stream.tasks, reference_splits(**args), strict=True):
            for split in SPLITS:
                for got, want in zip(task.splits[split], reference[split]):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)

    def test_default_stream_digest(self):
        # the data under every benchmark trace_hash; integer draws only, so the
        # digest depends on neither BLAS nor the CPU
        digest = hashlib.sha256()
        for task in generate_task_stream(7, 4, 256).tasks:
            for split in SPLITS:
                tokens, labels = task.splits[split]
                digest.update(tokens.tobytes())
                digest.update(labels.tobytes())
        assert digest.hexdigest() == (
            "f9461ff04c94c3e4b0126b019e3b1d21d483637d156e3699940cf3a417240747")


class TestAccessHook:
    def test_fetch_fires_audit_hook(self):
        stream = generate_task_stream(1, 2, samples_per_class=8)
        seen = []
        stream.on_access = lambda tid, split: seen.append((tid, split))
        stream.fetch(1, "train")
        stream.fetch(0, "test")
        assert seen == [(1, "train"), (0, "test")]

    def test_unknown_task_or_split(self):
        stream = generate_task_stream(1, 2, samples_per_class=8)
        with pytest.raises(StateError):
            stream.fetch(5, "train")
        with pytest.raises(StateError):
            stream.fetch(0, "bogus")

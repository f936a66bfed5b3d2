import numpy as np
import pytest

from loragate.data import generate_task_stream
from loragate.errors import ConfigError, StateError


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

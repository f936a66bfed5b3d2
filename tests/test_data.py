import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loragate.data import generate_task_stream
from loragate.errors import ConfigError, StateError
from loragate.rng import named_rng

SPLITS = ("train", "test")


def reference_splits(seed, n_tasks, samples_per_class, difficulty, classes_per_task,
                     seq_len, vocab_size):
    """Every task's splits from the generator calls ``generate_task_stream``
    makes, with each row's tokens placed one at a time from sorted signature
    lists: the plain form of its whole-array indexing."""
    background_size = vocab_size // 2
    band_width = (vocab_size - background_size) // n_tasks
    signal_count = min(3, seq_len - 2)
    eval_per_class = max(8, samples_per_class // 4)
    sizes = {"train": samples_per_class, "test": eval_per_class}
    streams = []
    for t in range(n_tasks):
        rng = named_rng(seed, f"data/task{t}")
        band = rng.permutation(np.arange(background_size + t * band_width,
                                         background_size + (t + 1) * band_width))
        signatures = [sorted(int(tok) for tok in band[c::classes_per_task])
                      for c in range(classes_per_task)]
        lengths = np.array([len(sig) for sig in signatures])

        def fresh_rows(labels):
            n = len(labels)
            tokens = rng.integers(0, background_size, size=(n, seq_len))
            positions = rng.permuted(np.broadcast_to(np.arange(seq_len), (n, seq_len)),
                                     axis=1)
            signal = rng.integers(0, lengths[labels][:, None], size=(n, signal_count))
            if classes_per_task > 1:
                others = rng.integers(0, classes_per_task - 1, size=n)
                others = np.where(others >= labels, others + 1, others)
                picks = rng.integers(0, lengths[others])
            for row, c in enumerate(labels.tolist()):
                for k in range(signal_count):
                    tokens[row, positions[row, k]] = signatures[c][signal[row, k]]
                if classes_per_task > 1:
                    other = int(others[row])
                    tokens[row, positions[row, signal_count]] = signatures[other][picks[row]]
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
            for split in SPLITS:
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
        # task t labels the union head's classes t·k .. t·k + k - 1
        k = 3
        stream = generate_task_stream(2, 4, samples_per_class=8, classes_per_task=k)
        for t, task in enumerate(stream.tasks):
            ids = set(range(t * k, (t + 1) * k))
            assert set(task.splits["train"][1].tolist()) <= ids
            assert set(task.splits["test"][1].tolist()) == ids

    def test_signature_bands_disjoint_across_tasks(self):
        stream = generate_task_stream(2, 4, samples_per_class=8, vocab_size=64)
        background = 64 // 2  # tokens below it are shared by all tasks
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
        rows = {split: {t.tobytes() for t in task.splits[split][0]} for split in SPLITS}
        assert not (rows["train"] & rows["test"])

    def test_eval_labels_balanced(self):
        # train labels carry difficulty noise; test stays clean
        stream = generate_task_stream(3, 2, samples_per_class=20, classes_per_task=4)
        _, labels = stream.tasks[1].splits["test"]
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

    @settings(max_examples=60, deadline=None)
    @given(stream_args())
    def test_rows_follow_the_row_law(self, args):
        # every row holds signal_count tokens of its class's signature and one of
        # another class of its task at distinct positions, background elsewhere;
        # train rows are pool rows, and their labels are clean at difficulty 0
        background = args["vocab_size"] // 2
        band_width = (args["vocab_size"] - background) // args["n_tasks"]
        k = args["classes_per_task"]
        signal_count = min(3, args["seq_len"] - 2)
        for split, difficulty in (("train", 0.0), ("test", args["difficulty"])):
            stream = generate_task_stream(**dict(args, difficulty=difficulty))
            for t, task in enumerate(stream.tasks):
                band = named_rng(args["seed"], f"data/task{t}").permutation(
                    np.arange(background + t * band_width,
                              background + (t + 1) * band_width))
                owner = {int(tok): i % k for i, tok in enumerate(band)}
                tokens, labels = task.splits[split]
                for row, label in zip(tokens.tolist(), (labels - t * k).tolist()):
                    placed = [owner[tok] for tok in row if tok >= background]
                    assert len(placed) == signal_count + (k > 1)
                    assert placed.count(label) == signal_count

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
            "3aae2646bee25546c832a088e75a7a56ceec60601dd60f9911e8979581fffc78")


class TestAccessHook:
    def test_unknown_task_or_split(self):
        stream = generate_task_stream(1, 2, samples_per_class=8)
        with pytest.raises(StateError):
            stream.fetch(5, "train")
        with pytest.raises(StateError):
            stream.fetch(0, "bogus")

    def test_no_val_split(self):
        # no run reads a validation split, so none is drawn
        stream = generate_task_stream(1, 2, samples_per_class=8)
        with pytest.raises(StateError):
            stream.fetch(0, "val")

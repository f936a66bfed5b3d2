import numpy as np
import pytest

import loragate.metrics as metrics
from loragate.errors import ShapeError, StateError
from loragate.metrics import (
    AccuracyMatrix,
    MaskOverlap,
    backward_transfer,
    expected_jaccard,
    forward_transfer,
    jaccard_overlap,
    overall_accuracy,
    sparsity,
)


def full_matrix(rng, n_tasks):
    acc = AccuracyMatrix(n_tasks)
    for j in range(n_tasks):
        acc.set_isolated(j, float(rng.random()))
    for i in range(1, n_tasks + 1):
        for j in range(i):
            acc.set(i, j, float(rng.random()))
    return acc


class TestAccuracyMatrix:
    def test_upper_triangle_rejected(self):
        acc = AccuracyMatrix(3)
        with pytest.raises(ValueError):
            acc.set(1, 1, 0.5)
        with pytest.raises(ValueError):
            acc.set(0, 0, 0.5)  # row 0 is reserved for isolated runs

    def test_range_checked(self):
        acc = AccuracyMatrix(2)
        with pytest.raises(ValueError):
            acc.set_isolated(0, 1.2)


class TestOverallAccuracy:
    def test_all_ones(self):
        acc = AccuracyMatrix(3)
        for j in range(3):
            acc.set(3, j, 1.0)
        assert overall_accuracy(acc) == 1.0

    def test_direct_formula(self):
        acc = AccuracyMatrix(2)
        acc.set(2, 0, 0.8)
        acc.set(2, 1, 0.6)
        assert overall_accuracy(acc) == pytest.approx(0.7)

    def test_single_task(self):
        acc = AccuracyMatrix(1)
        acc.set(1, 0, 0.42)
        assert overall_accuracy(acc) == pytest.approx(0.42)

    def test_incomplete_final_row_rejected(self):
        acc = AccuracyMatrix(2)
        acc.set(2, 0, 0.8)
        with pytest.raises(StateError):
            overall_accuracy(acc)


class TestBackwardTransfer:
    def test_no_forgetting_is_zero(self, rng):
        acc = full_matrix(rng, 4)
        for j in range(3):
            acc.grid[4, j] = acc.grid[j + 1, j]
        assert backward_transfer(acc) == 0.0

    def test_direct_formula(self):
        acc = AccuracyMatrix(2)
        acc.set(1, 0, 0.9)
        acc.set(2, 0, 0.7)
        acc.set(2, 1, 0.5)
        assert backward_transfer(acc) == pytest.approx(-0.2)

    def test_positive_when_improving(self, rng):
        acc = full_matrix(rng, 3)
        for j in range(2):
            acc.grid[3, j] = min(1.0, acc.grid[j + 1, j] + 0.05)
        assert backward_transfer(acc) > 0.0

    def test_single_task_not_applicable(self):
        acc = AccuracyMatrix(1)
        acc.set(1, 0, 0.5)
        assert backward_transfer(acc) is None


class TestForwardTransfer:
    def test_zero_when_equal(self, rng):
        acc = full_matrix(rng, 3)
        for j in range(3):
            acc.grid[0, j] = acc.grid[j + 1, j]
        assert forward_transfer(acc) == 0.0

    def test_direct_formula(self):
        acc = AccuracyMatrix(2)
        acc.set_isolated(0, 0.5)
        acc.set_isolated(1, 0.8)
        acc.set(1, 0, 0.6)   # +0.1
        acc.set(2, 1, 0.5)   # -0.3
        acc.set(2, 0, 0.4)
        assert forward_transfer(acc) == pytest.approx(-0.1)

    def test_first_task_contributes(self):
        acc = AccuracyMatrix(1)
        acc.set_isolated(0, 0.3)
        acc.set(1, 0, 0.5)
        assert forward_transfer(acc) == pytest.approx(0.2)

    def test_missing_isolated_row_rejected(self, rng):
        acc = full_matrix(rng, 2)
        acc.grid[0, 1] = np.nan
        with pytest.raises(StateError):
            forward_transfer(acc)


class TestBruteForceEquality:
    def test_matches_loop_recomputation(self, rng):
        for _ in range(50):
            t = int(rng.integers(2, 8))
            acc = full_matrix(rng, t)
            oa = sum(acc.grid[t, j] for j in range(t)) / t
            bwt = sum(acc.grid[t, j] - acc.grid[j + 1, j] for j in range(t - 1)) / (t - 1)
            fwt = sum(acc.grid[j + 1, j] - acc.grid[0, j] for j in range(t)) / t
            assert overall_accuracy(acc) == pytest.approx(oa, abs=1e-12)
            assert backward_transfer(acc) == pytest.approx(bwt, abs=1e-12)
            assert forward_transfer(acc) == pytest.approx(fwt, abs=1e-12)


class TestSparsity:
    def test_all_zero_mask(self):
        assert sparsity(np.zeros((4, 4))) == 1.0

    def test_all_ones_mask(self):
        assert sparsity(np.ones((4, 4))) == 0.0

    def test_counting(self):
        mask = np.ones(10)
        mask[:3] = 0
        assert sparsity(mask) == pytest.approx(0.3)

    def test_nondecreasing_in_threshold(self, rng):
        dw = rng.normal(size=(20, 20))
        taus = np.sort(rng.uniform(0, 2, size=8))
        values = [sparsity(np.abs(dw) > t) for t in taus]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestJaccard:
    def test_identical_nonempty(self, rng):
        m = rng.random((5, 5)) > 0.5
        m[0, 0] = True
        assert jaccard_overlap(m, m) == 1.0

    def test_set_arithmetic(self):
        m1 = np.zeros(6)
        m2 = np.zeros(6)
        m1[[1, 2, 3]] = 1
        m2[[3, 4]] = 1
        assert jaccard_overlap(m1, m2) == pytest.approx(0.25)

    def test_disjoint_supports(self):
        m1 = np.array([1, 1, 0, 0])
        m2 = np.array([0, 0, 1, 1])
        assert jaccard_overlap(m1, m2) == 0.0

    def test_empty_union_is_zero(self):
        z = np.zeros(4)
        assert jaccard_overlap(z, z) == 0.0

    def test_symmetric_and_bounded(self, rng):
        for _ in range(50):
            m1 = rng.random(30) > 0.6
            m2 = rng.random(30) > 0.6
            j12 = jaccard_overlap(m1, m2)
            assert j12 == jaccard_overlap(m2, m1)
            assert 0.0 <= j12 <= 1.0
            if j12 == 1.0:
                assert m1.any() and np.array_equal(m1, m2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            jaccard_overlap(np.zeros(3), np.zeros(4))

    def test_matches_set_oracle(self, rng):
        for _ in range(50):
            m1 = rng.random(40) > 0.5
            m2 = rng.random(40) > 0.5
            s1 = {i for i in range(40) if m1[i]}
            s2 = {i for i in range(40) if m2[i]}
            want = len(s1 & s2) / len(s1 | s2) if (s1 | s2) else 0.0
            assert jaccard_overlap(m1, m2) == pytest.approx(want, abs=1e-12)


class TestExpectedJaccard:
    def test_both_empty_is_zero(self):
        # as jaccard_overlap scores two empty supports
        assert float(expected_jaccard(0.0, 0.0)) == 0.0

    def test_both_full_is_one(self):
        assert float(expected_jaccard(1.0, 1.0)) == 1.0

    def test_one_empty_is_zero(self):
        assert float(expected_jaccard(0.0, 0.7)) == 0.0

    def test_broadcasts(self):
        got = expected_jaccard(0.5, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(got, [0.0, 1 / 3, 0.5], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p,q", [(0.05, 0.05), (0.1, 0.4), (0.5, 0.5),
                                     (0.3, 0.9), (0.95, 0.95)])
    def test_matches_independent_random_masks(self, rng, p, q):
        observed = [jaccard_overlap(rng.random((64, 64)) < p, rng.random((64, 64)) < q)
                    for _ in range(50)]
        assert float(expected_jaccard(p, q)) == pytest.approx(np.mean(observed), abs=0.01)


def stream_masks(*supports):
    """Per-position masks of one layer ``l``, from per-position supports."""
    return [{"l": np.array(m, dtype=np.uint8)} for m in supports]


class TestMeanPriorOverlap:
    """The mean Jaccard against earlier positions, column 3 of
    ``MaskOverlap.isolation_rows``, with its expectation and excess."""

    def test_disjoint_tasks(self):
        overlap = MaskOverlap(stream_masks(*np.eye(4, dtype=np.uint8)[:3]))
        rows = list(overlap.isolation_rows())
        assert [r[3] for r in rows[1:]] == [0.0, 0.0]
        assert overlap.mean_pairwise_jaccard() == 0.0
        # three disjoint singletons in 4 entries overlap less than chance
        assert all(r[5] < 0 for r in rows[1:])

    def test_identical_tasks(self):
        overlap = MaskOverlap(stream_masks([1, 1, 0, 0], [1, 1, 0, 0]))
        (_, lid, kept, prior, expected, excess), = list(overlap.isolation_rows())[1:]
        assert (lid, kept, prior) == ("l", 0.5, 1.0)
        assert expected == pytest.approx(1 / 3) and excess == pytest.approx(2 / 3)

    def test_averaging_oracle(self):
        base = np.zeros(10)
        m3 = base.copy(); m3[:5] = 1          # support {0..4}
        m1 = base.copy(); m1[4:8] = 1          # overlap {4}: 1/8
        m2 = base.copy(); m2[1:5] = 1          # overlap {1..4}: 4/6
        overlap = MaskOverlap(stream_masks(m1, m2, m3))
        prior = list(overlap.isolation_rows())[2][3]
        assert prior == pytest.approx((jaccard_overlap(m3, m1) + jaccard_overlap(m3, m2)) / 2)
        pairs = [jaccard_overlap(a, b) for a, b in ((m1, m2), (m1, m3), (m2, m3))]
        assert overlap.mean_pairwise_jaccard() == pytest.approx(np.mean(pairs), abs=1e-15)

    def test_first_task_not_applicable(self):
        overlap = MaskOverlap([{"a": np.ones(3), "b": np.zeros(3)}])
        assert list(overlap.isolation_rows()) == [(0, "a", 1.0, None, None, None),
                                                  (0, "b", 0.0, None, None, None)]
        assert overlap.mean_pairwise_jaccard() is None


class TestMaskOverlap:
    def test_layout_follows_the_first_position(self, rng):
        masks = [{lid: rng.random((3, 4)) > 0.5 for lid in ("blk1.q", "blk0.q", "x")}
                 for _ in range(4)]
        overlap = MaskOverlap(masks)
        assert overlap.layers == ["blk1.q", "blk0.q", "x"]
        for l, lid in enumerate(overlap.layers):
            for t in range(4):
                assert overlap.sparsity[l, t] == sparsity(masks[t][lid])
                assert np.isnan(overlap.jaccard[l, t, t])
                for i in range(t):
                    want = jaccard_overlap(masks[t][lid], masks[i][lid])
                    assert overlap.jaccard[l, t, i] == overlap.jaccard[l, i, t] == want
        rows = list(overlap.isolation_rows())
        assert [(r[0], r[1]) for r in rows] == [(t, lid) for t in range(4)
                                                for lid in overlap.layers]

    def test_each_pair_scored_once(self, rng, monkeypatch):
        calls = []
        score = metrics.jaccard_overlap

        def counting(m1, m2):
            calls.append(1)
            return score(m1, m2)

        monkeypatch.setattr(metrics, "jaccard_overlap", counting)
        overlap = MaskOverlap([{lid: rng.random(6) > 0.5 for lid in "ab"} for _ in range(5)])
        list(overlap.isolation_rows())
        overlap.mean_pairwise_jaccard()
        assert len(calls) == 2 * (5 * 4 // 2)

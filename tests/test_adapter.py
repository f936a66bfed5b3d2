import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loragate.adapter import (
    Adapter,
    JumpGate,
    THRESHOLD_FLOOR,
    dense_update,
    final_sparse_update,
    gamma,
    init_adapter,
    init_gate,
    init_threshold,
    interpolate_update,
    jump_update,
    merge,
    ramp,
)
from loragate.autodiff import Tape, Tensor, add, frobenius_sq, threshold_pseudograd
from loragate.errors import ConfigError, ShapeError, StateError

PROPERTY = settings(max_examples=60, deadline=None)
ENTRIES = st.floats(-4.0, 4.0, width=32)
UPDATES = arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                 elements=ENTRIES)
# the updates of a bank of 1-3 layers
BANKS = arrays(np.float32, st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)),
               elements=ENTRIES)


def bank_of(adapters):
    """The adapter bank of ``adapters``: their factors stacked in order."""
    return Adapter(down=Tensor(np.stack([a.down.data for a in adapters]), requires_grad=True),
                   up=Tensor(np.stack([a.up.data for a in adapters]), requires_grad=True))


def gate_with(tau, bandwidth=1e-3, dtype=np.float32):
    return JumpGate(Tensor(np.asarray(tau, dtype=dtype), requires_grad=True), bandwidth)


def composite_gate(x, tau, bandwidth, c):
    """The gate as the composite x*H(x - tau) - (-x)*H(-x - tau), under the
    loss ||out + c||^2: output, x-gradient and threshold gradient, computed
    in the order of its four backward rules (sub, the -x side, the negation,
    the +x side)."""
    one = np.ones((), dtype=x.dtype)
    neg_x = x * -1.0
    active_pos = (x - tau > 0).astype(x.dtype)
    active_neg = (neg_x - tau > 0).astype(x.dtype)
    out = x * active_pos - neg_x * active_neg
    g = 2.0 * (out + c) * one
    grad_x = ((-g) * active_neg) * -1.0
    grad_t = np.asarray(((-g) * threshold_pseudograd(neg_x, tau, bandwidth)).sum(),
                        dtype=x.dtype)
    grad_x = grad_x + g * active_pos
    grad_t = grad_t + np.asarray((g * threshold_pseudograd(x, tau, bandwidth)).sum(),
                                 dtype=x.dtype)
    return out, grad_x, grad_t


class TestInitAdapter:
    def test_up_factor_starts_at_zero(self):
        ad = init_adapter(12, 10, 4, seed=3)
        assert not ad.up.data.any()
        np.testing.assert_array_equal(dense_update(ad).data, np.zeros((12, 10)))

    def test_down_factor_bound_is_pinned(self):
        ad = init_adapter(64, 64, 8, seed=5)
        bound = np.sqrt(6.0 / 64)
        assert np.abs(ad.down.data).max() <= bound
        # a draw this size should come close to the bound
        assert np.abs(ad.down.data).max() > 0.9 * bound

    def test_same_seed_bit_identical(self):
        a1 = init_adapter(32, 24, 8, seed=77)
        a2 = init_adapter(32, 24, 8, seed=77)
        np.testing.assert_array_equal(a1.down.data, a2.down.data)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            init_adapter(0, 4, 2, seed=0)
        with pytest.raises(ConfigError):
            init_adapter(4, 4, 0, seed=0)

    def test_oversized_rank_warns(self):
        with pytest.warns(UserWarning):
            init_adapter(4, 4, 8, seed=0)

    def test_budget_counts_both_factors(self):
        assert init_adapter(9, 7, 3, seed=0).budget() == 3 * (9 + 7)

    def test_factors_require_grad(self):
        ad = init_adapter(8, 8, 2, seed=1)
        assert ad.down.requires_grad and ad.up.requires_grad


class TestDenseUpdate:
    def test_rank_one_product(self):
        ad = Adapter(down=Tensor([[1.0], [0.0]], requires_grad=True),
                     up=Tensor([[2.0, 3.0]], requires_grad=True))
        np.testing.assert_array_equal(dense_update(ad).data, [[2.0, 3.0], [0.0, 0.0]])

    def test_matches_independent_matmul(self, rng):
        ad = init_adapter(9, 7, 3, seed=2)
        ad.up.data = rng.normal(size=(3, 7)).astype(np.float32)
        np.testing.assert_array_equal(dense_update(ad).data, ad.down.data @ ad.up.data)


class TestJumpUpdate:
    def test_magnitude_gating(self):
        dw = Tensor(np.array([-3.0, 0.5, 2.0], dtype=np.float32))
        out = jump_update(dw, gate_with(1.0))
        np.testing.assert_array_equal(out.data, [-3.0, 0.0, 2.0])

    def test_zero_threshold_keeps_nonzeros(self):
        dw = Tensor(np.array([-2.0, 0.0, 1.5], dtype=np.float32))
        out = jump_update(dw, gate_with(0.0))
        np.testing.assert_array_equal(out.data, [-2.0, 0.0, 1.5])

    def test_matches_mask_oracle_at_median(self, rng):
        dw_data = rng.normal(size=(16, 16)).astype(np.float32)
        tau = float(np.median(np.abs(dw_data)))
        out = jump_update(Tensor(dw_data), gate_with(tau))
        np.testing.assert_array_equal(out.data, dw_data * (np.abs(dw_data) > tau))

    def test_sign_equivariance(self, rng):
        dw_data = rng.normal(size=(8, 8)).astype(np.float32)
        gate = gate_with(0.5)
        pos = jump_update(Tensor(dw_data), gate).data
        negated = jump_update(Tensor(-dw_data), gate).data
        np.testing.assert_array_equal(negated, -pos)

    def test_monotone_support_shrinks_with_threshold(self, rng):
        dw_data = rng.normal(size=(12, 12)).astype(np.float32)
        taus = sorted(rng.uniform(0.0, 2.0, size=6))
        supports = [jump_update(Tensor(dw_data), gate_with(t)).data != 0 for t in taus]
        for lo, hi in zip(supports, supports[1:]):
            assert np.all(lo | ~hi)  # support(hi tau) is a subset of support(lo tau)

    @PROPERTY
    @given(dw=UPDATES, tau=st.floats(0.0, 4.0, width=32, exclude_min=True))
    def test_equals_magnitude_mask_for_positive_threshold(self, dw, tau):
        out = jump_update(Tensor(dw), gate_with(tau))
        np.testing.assert_array_equal(out.data, dw * (np.abs(dw) > tau))

    @PROPERTY
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           tau=st.floats(0.0, 4.0, width=32, exclude_min=True),
           bandwidth=st.sampled_from([1e-3, 0.1, 1.0, 8.0]))
    def test_matches_the_two_sided_composite(self, data, dtype, tau, bandwidth):
        # wide bandwidths put entries in both kernel bands, which overlap
        # when tau < bandwidth / 2
        dw = data.draw(arrays(dtype, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                              elements=ENTRIES))
        c = np.linspace(-1.0, 1.0, dw.size).reshape(dw.shape).astype(dtype)
        gate = gate_with(tau, bandwidth, dtype)
        x = Tensor(dw, requires_grad=True)
        with Tape() as tape:
            out = jump_update(x, gate)
            tape.backward(frobenius_sq(add(out, Tensor(c))))
        want_out, want_gx, want_gt = composite_gate(dw, float(gate.threshold.data),
                                                    bandwidth, c)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(x.grad, want_gx)
        assert np.array_equal(gate.threshold.grad, want_gt)
        assert x.grad.dtype == gate.threshold.grad.dtype == dtype

    @PROPERTY
    @given(dw=UPDATES, tau=st.floats(-4.0, 0.0, width=32))
    def test_nonpositive_threshold_keeps_every_entry(self, dw, tau):
        x = Tensor(dw, requires_grad=True)
        with Tape() as tape:
            out = jump_update(x, gate_with(tau))
            tape.backward(frobenius_sq(out))
        np.testing.assert_array_equal(out.data, dw)
        np.testing.assert_array_equal(x.grad, 2.0 * dw)

    def test_one_tape_record(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            jump_update(x, gate_with(0.5))
            assert len(tape) == 1

    def test_gradient_reaches_factors_and_threshold(self, rng):
        ad = init_adapter(6, 6, 2, seed=4)
        ad.up.data = rng.normal(scale=0.5, size=(2, 6)).astype(np.float32)
        gate = gate_with(0.05)
        gate.threshold.requires_grad = True
        with Tape() as tape:
            dw = dense_update(ad)
            out = jump_update(dw, gate)
            tape.backward(frobenius_sq(out))
        assert ad.down.grad is not None and ad.up.grad is not None
        assert gate.threshold.grad is not None


class TestInterpolate:
    def test_endpoints_exact(self, rng):
        dw = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        dj = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        assert interpolate_update(dw, dj, 0.0) is dw
        assert interpolate_update(dw, dj, 1.0) is dj

    def test_midpoint(self):
        out = interpolate_update(Tensor([2.0]), Tensor([0.0]), 0.5)
        np.testing.assert_array_equal(out.data, [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            interpolate_update(Tensor([1.0, 2.0]), Tensor([1.0]), 0.5)


class TestInitThreshold:
    def test_sorting_oracle(self):
        mags = np.array([0.9, 0.7, 0.5, 0.3, 0.1], dtype=np.float32)
        tau = init_threshold([mags], budget=2)
        assert tau == np.float32(0.5)
        above = np.abs(mags) > tau
        assert above.sum() == 2 and set(mags[above]) == {np.float32(0.9), np.float32(0.7)}

    def test_saturated_budget_returns_floor(self):
        mags = np.array([0.4, 0.2], dtype=np.float32)
        with pytest.warns(UserWarning, match="budget"):
            assert init_threshold([mags], budget=2) == THRESHOLD_FLOOR
        with pytest.warns(UserWarning, match="budget"):
            assert init_threshold([mags], budget=5) == THRESHOLD_FLOOR

    def test_total_tie_excludes_everything(self):
        mags = np.full(6, 0.25, dtype=np.float32)
        tau = init_threshold([mags], budget=3)
        assert tau == np.float32(0.25)
        assert (np.abs(mags) > tau).sum() == 0

    def test_count_property_random_pools(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 200))
            vals = rng.permutation(np.linspace(0.05, 3.0, n)).astype(np.float64)
            budget = int(rng.integers(1, n + 1))
            tau = init_threshold([vals], budget)
            assert (np.abs(vals) > tau).sum() == min(budget, n)

    def test_order_statistic_rule(self, rng):
        vals = rng.permutation(np.linspace(0.1, 1.0, 10))
        tau = init_threshold([vals], budget=4)
        assert tau == np.sort(np.abs(vals))[::-1][4]  # the (budget+1)-th largest

    def test_pooling_across_scope(self):
        a = np.array([0.9, 0.1], dtype=np.float32)
        b = np.array([0.8, 0.2], dtype=np.float32)
        tau = init_threshold([a, b], budget=2)
        assert tau == np.float32(0.2)

    def test_empty_scope_rejected(self):
        with pytest.raises(StateError):
            init_threshold([], budget=1)

    def test_all_zero_pool_falls_back_to_floor(self):
        with pytest.warns(UserWarning, match="all update entries are zero"):
            tau = init_threshold([np.zeros(8, dtype=np.float32)], budget=2)
        assert tau == THRESHOLD_FLOOR

    def test_between_duplicates_count_stays_at_most_budget(self):
        vals = np.array([0.9, 0.5, 0.5, 0.5, 0.1], dtype=np.float32)
        tau = init_threshold([vals], budget=2)
        assert tau == np.float32(0.5)
        assert (np.abs(vals) > tau).sum() <= 2

    @PROPERTY
    @given(pool=BANKS, data=st.data())
    def test_at_most_budget_entries_above_threshold(self, pool, data):
        # ties, zeros and several layers of a bank in one pool included
        budget = data.draw(st.integers(0, pool.size))
        tau = init_threshold(pool, budget)
        assert int((np.abs(pool) > tau).sum()) <= budget


class TestInitGate:
    def test_pools_its_scope_with_the_summed_budget(self, rng):
        adapters = [init_adapter(4, 6, 2, seed=i) for i in range(3)]
        for ad in adapters:
            ad.up.data = rng.normal(size=(2, 6)).astype(np.float32)
        threshold = Tensor(np.zeros((), dtype=np.float32), requires_grad=True)
        gate = init_gate(threshold, 1e-3, bank_of(adapters))
        # every layer's product pooled, with the 3 layers' summed budget
        pooled = np.abs(np.concatenate([(ad.down.data @ ad.up.data).reshape(-1)
                                        for ad in adapters]))
        budget = 3 * (2 * (4 + 6))
        assert gate.threshold is threshold and gate.bandwidth == 1e-3
        assert gate.threshold.dtype == np.float32
        assert gate.threshold.data == np.sort(pooled)[::-1][budget]
        assert gate.threshold.data == np.float32(init_threshold(pooled, budget))

    def test_all_zero_scope_falls_back_to_floor(self):
        bank = bank_of([init_adapter(4, 6, 2, seed=i) for i in range(2)])  # up starts at zero
        gate = init_gate(Tensor(np.zeros((), dtype=np.float32)), 1e-3, bank)
        assert gate.threshold.data == THRESHOLD_FLOOR


class TestFinalUpdateAndMerge:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), at=st.sampled_from(["random", "tie", 0.0,
                                                               THRESHOLD_FLOOR]))
    def test_equals_gated_update(self, seed, at):
        """The same bytes, signed zeros included, at random thresholds, at a
        tie |dw| = threshold, at 0 and at the floor."""
        rng = np.random.default_rng(seed)
        ad = init_adapter(10, 10, 3, seed=9)
        ad.up.data = rng.normal(scale=0.3, size=(3, 10)).astype(np.float32)
        ad.up.data[:, ::4] = 0.0  # exact zeros in the update
        dw = dense_update(ad)
        if at == "random":
            at = rng.uniform(0.0, 0.5)
        elif at == "tie":
            at = np.abs(rng.choice(dw.data.reshape(-1)))
        gate = gate_with(at)
        assert final_sparse_update(ad, gate).tobytes() == jump_update(dw, gate).data.tobytes()

    def test_no_gate_gives_the_factor_product(self, rng):
        ad = init_adapter(6, 5, 2, seed=9)
        ad.up.data = rng.normal(size=(2, 5)).astype(np.float32)
        np.testing.assert_array_equal(final_sparse_update(ad, None), dense_update(ad).data)

    def test_huge_threshold_gives_zero(self, rng):
        ad = init_adapter(6, 6, 2, seed=9)
        ad.up.data = rng.normal(size=(2, 6)).astype(np.float32)
        gate = gate_with(1e6)
        assert not final_sparse_update(ad, gate).any()

    def test_floor_threshold_keeps_large_entries(self, rng):
        ad = init_adapter(6, 6, 2, seed=10)
        ad.up.data = rng.normal(size=(2, 6)).astype(np.float32)
        dw = ad.down.data @ ad.up.data
        out = final_sparse_update(ad, gate_with(THRESHOLD_FLOOR))
        big = np.abs(dw) > THRESHOLD_FLOOR
        np.testing.assert_array_equal(out[big], dw[big])

    def test_merge_zero_update_is_identity(self, rng):
        w = Tensor(rng.normal(size=(5, 5)).astype(np.float32))
        merged = merge(w, np.zeros((5, 5), dtype=np.float32), 4.0)
        np.testing.assert_array_equal(merged.data, w.data)

    def test_merge_scaling(self):
        merged = merge(Tensor(np.zeros((1, 1), dtype=np.float32)),
                       np.array([[1.0]], dtype=np.float32), 4.0)
        np.testing.assert_array_equal(merged.data, [[4.0]])

    def test_merge_shape_mismatch(self):
        with pytest.raises(ShapeError):
            merge(Tensor(np.zeros((2, 2))), np.zeros((2, 3)), 1.0)

    def test_disjoint_merges_touch_disjoint_coordinates(self, rng):
        w = np.zeros((4, 4), dtype=np.float32)
        d1 = np.zeros_like(w)
        d2 = np.zeros_like(w)
        d1[0, 0] = 1.0
        d2[3, 3] = 2.0
        merged = merge(merge(Tensor(w), d1, 2.0), d2, 2.0)
        changed = merged.data != 0
        assert changed.sum() == 2 and merged.data[0, 0] == 2.0 and merged.data[3, 3] == 4.0


# the interpolation ramp: ``ramp`` turns epoch fractions into its (start, final)
# steps, and ``gamma`` is the factor at a step
class TestGamma:
    def test_endpoints(self):
        assert gamma(20, 20, 80) == 0.0
        assert gamma(80, 20, 80) == 1.0

    def test_midpoint(self):
        assert gamma(50, 20, 80) == 0.5

    def test_clipped_outside_window(self):
        assert gamma(0, 20, 80) == 0.0
        assert gamma(5, 20, 80) == 0.0
        assert gamma(99, 20, 80) == 1.0

    def test_step_function_when_window_empty(self):
        assert gamma(9, 10, 10) == 0.0
        assert gamma(10, 10, 10) == 1.0
        assert gamma(15, 10, 10) == 1.0

    @pytest.mark.parametrize("start,final,total", [(0, 10, 10), (3, 17, 20), (20, 80, 100)])
    def test_monotone_and_bounded(self, start, final, total):
        values = [gamma(s, start, final) for s in range(total + 1)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(total=st.integers(1, 300),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_bounded_and_nondecreasing_for_any_fractions(self, total, fracs):
        start, final = ramp(total, min(fracs), max(fracs))
        assert 0 <= start <= final <= total
        values = [gamma(s, start, final) for s in range(-1, total + 2)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("start,final,total", [(2, 9, 12), (20, 80, 100), (0, 997, 1000)])
    def test_linear_increments_within_one_ulp(self, start, final, total):
        slope = 1.0 / (final - start)
        for s in range(start, final):
            diff = gamma(s + 1, start, final) - gamma(s, start, final)
            assert abs(diff - slope) <= np.spacing(1.0)


class TestFromFractions:
    def test_paper_fractions(self):
        assert ramp(100, 0.2, 0.8) == (20, 80)

    def test_full_range(self):
        assert ramp(100, 0.0, 1.0) == (0, 100)

    def test_floor_arithmetic(self):
        assert ramp(7, 0.2, 0.8) == (1, 5)

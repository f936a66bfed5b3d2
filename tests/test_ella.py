import numpy as np
import pytest

from loragate.autodiff import Tape, Tensor, matmul
from loragate.ella import ella_penalty, make_ella_state, update_past
from loragate.errors import ConfigError, ShapeError, StateError

from conftest import fd_grad, rel_err


class TestPenalty:
    def test_zero_past_means_zero_penalty(self, rng):
        dense = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        past = np.zeros((4, 4), dtype=np.float32)
        assert ella_penalty(dense, None, past, 5.0, step=0, start_step=3).item() == 0.0

    def test_hand_evaluation_before_start(self):
        dense = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        past = np.array([[3.0, 0.0]], dtype=np.float32)
        pen = ella_penalty(dense, None, past, 2.0, step=1, start_step=5)
        assert pen.item() == 18.0  # 2 * (1*3)^2

    def test_switches_to_gated_after_start(self):
        dense = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        gated = Tensor(np.array([[0.0, 2.0]], dtype=np.float32))
        past = np.array([[3.0, 1.0]], dtype=np.float32)
        before = ella_penalty(dense, gated, past, 1.0, step=2, start_step=5)
        after = ella_penalty(dense, gated, past, 1.0, step=5, start_step=5)
        assert before.item() == pytest.approx(9.0 + 4.0)
        assert after.item() == pytest.approx(4.0)  # gated kills the overlapping entry

    def test_disjoint_supports_give_zero(self, rng):
        gated_data = np.zeros((3, 3), dtype=np.float32)
        gated_data[0, 0] = 2.0
        past = np.zeros((3, 3), dtype=np.float32)
        past[2, 2] = 1.0
        pen = ella_penalty(Tensor(np.ones((3, 3), dtype=np.float32)),
                           Tensor(gated_data), past, 10.0, step=9, start_step=2)
        assert pen.item() == 0.0

    def test_linear_in_weight(self, rng):
        dense = Tensor(rng.normal(size=(5, 5)).astype(np.float32))
        past = rng.normal(size=(5, 5)).astype(np.float32)
        one = ella_penalty(dense, None, past, 1.5, step=0, start_step=1).item()
        two = ella_penalty(dense, None, past, 3.0, step=0, start_step=1).item()
        assert two == pytest.approx(2.0 * one, rel=1e-6)
        assert one >= 0.0

    def test_negative_weight_rejected(self):
        dense = Tensor(np.ones((2, 2)))
        with pytest.raises(ConfigError):
            ella_penalty(dense, None, np.ones((2, 2)), -1.0, step=0, start_step=1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ella_penalty(Tensor(np.ones((2, 2))), None, np.ones((2, 3)), 1.0, 0, 1)

    def test_gradient_matches_finite_differences(self, rng):
        down = rng.normal(size=(6, 2))
        up = rng.normal(size=(2, 6))
        past = rng.normal(size=(6, 6))

        def f(d, u):
            dw = d @ u
            return float(2.5 * ((dw * past) ** 2).sum())

        td = Tensor(down, requires_grad=True, dtype=np.float64)
        tu = Tensor(up, requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            pen = ella_penalty(matmul(td, tu), None, past, 2.5, step=0, start_step=4)
            tape.backward(pen)
        assert rel_err(td.grad, fd_grad(f, [down, up], 0)) < 1e-4
        assert rel_err(tu.grad, fd_grad(f, [down, up], 1)) < 1e-4


class TestPastState:
    def test_starts_at_zero(self):
        state = make_ella_state({"l1": (3, 3)})
        assert not state.past["l1"].any()

    def test_first_accumulation_is_the_update(self, rng):
        state = make_ella_state({"l1": (2, 2)})
        dw = rng.normal(size=(2, 2)).astype(np.float32)
        update_past(state, dw, "l1")
        np.testing.assert_array_equal(state.past["l1"], dw)

    def test_additive_inverse_cancels(self, rng):
        state = make_ella_state({"l1": (2, 2)})
        dw = rng.normal(size=(2, 2)).astype(np.float32)
        update_past(state, dw, "l1")
        update_past(state, -dw, "l1")
        np.testing.assert_array_equal(state.past["l1"], np.zeros((2, 2)))

    def test_matches_summation_oracle(self, rng):
        state = make_ella_state({"l1": (4, 4)})
        updates = [rng.normal(size=(4, 4)).astype(np.float32) for _ in range(3)]
        for dw in updates:
            update_past(state, dw, "l1")
        np.testing.assert_array_equal(state.past["l1"], updates[0] + updates[1] + updates[2])

    def test_unknown_layer_rejected(self):
        state = make_ella_state({"l1": (2, 2)})
        with pytest.raises(StateError):
            update_past(state, np.zeros((2, 2)), "nope")

    def test_shape_mismatch_rejected(self):
        state = make_ella_state({"l1": (2, 2)})
        with pytest.raises(ShapeError):
            update_past(state, np.zeros((3, 3)), "l1")

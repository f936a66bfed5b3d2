import numpy as np
import pytest

from loragate.autodiff import Tape, Tensor, matmul
from loragate.ella import ella_penalty, update_past
from loragate.errors import ShapeError, StateError

from conftest import fd_grad, rel_err


class TestPenalty:
    def test_zero_past_means_zero_penalty(self, rng):
        dense = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
        past = np.zeros((4, 4), dtype=np.float32)
        assert ella_penalty(dense, past, 5.0).item() == 0.0

    def test_hand_evaluation(self):
        dense = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        past = np.array([[3.0, 0.0]], dtype=np.float32)
        pen = ella_penalty(dense, past, 2.0)
        assert pen.item() == 18.0  # 2 * (1*3)^2

    def test_disjoint_supports_give_zero(self, rng):
        gated_data = np.zeros((3, 3), dtype=np.float32)
        gated_data[0, 0] = 2.0
        past = np.zeros((3, 3), dtype=np.float32)
        past[2, 2] = 1.0
        pen = ella_penalty(Tensor(gated_data), past, 10.0)
        assert pen.item() == 0.0

    def test_linear_in_weight(self, rng):
        dense = Tensor(rng.normal(size=(5, 5)).astype(np.float32))
        past = rng.normal(size=(5, 5)).astype(np.float32)
        one = ella_penalty(dense, past, 1.5).item()
        two = ella_penalty(dense, past, 3.0).item()
        assert two == pytest.approx(2.0 * one, rel=1e-6)
        assert one >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="frobenius_sq"):
            ella_penalty(Tensor(np.ones((2, 2))), np.ones((2, 3)), 1.0)

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
            pen = ella_penalty(matmul(td, tu), past, 2.5)
            tape.backward(pen)
        assert rel_err(td.grad, fd_grad(f, [down, up], 0)) < 1e-4
        assert rel_err(tu.grad, fd_grad(f, [down, up], 1)) < 1e-4


class TestPastState:
    def test_first_accumulation_is_the_update(self, rng):
        past = {"l1": np.zeros((2, 2), dtype=np.float32)}
        dw = rng.normal(size=(2, 2)).astype(np.float32)
        assert update_past(past, dw, "l1") is None
        np.testing.assert_array_equal(past["l1"], dw)

    def test_additive_inverse_cancels(self, rng):
        past = {"l1": np.zeros((2, 2), dtype=np.float32)}
        dw = rng.normal(size=(2, 2)).astype(np.float32)
        update_past(past, dw, "l1")
        update_past(past, -dw, "l1")
        np.testing.assert_array_equal(past["l1"], np.zeros((2, 2)))

    def test_matches_summation_oracle(self, rng):
        past = {"l1": np.zeros((4, 4), dtype=np.float32)}
        updates = [rng.normal(size=(4, 4)).astype(np.float32) for _ in range(3)]
        for dw in updates:
            update_past(past, dw, "l1")
        np.testing.assert_array_equal(past["l1"], updates[0] + updates[1] + updates[2])

    def test_unknown_layer_rejected(self):
        past = {"l1": np.zeros((2, 2), dtype=np.float32)}
        with pytest.raises(StateError):
            update_past(past, np.zeros((2, 2)), "nope")

    def test_shape_mismatch_rejected(self):
        past = {"l1": np.zeros((2, 2), dtype=np.float32)}
        with pytest.raises(ShapeError):
            update_past(past, np.zeros((3, 3)), "l1")

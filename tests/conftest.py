import types

import numpy as np
import pytest

from loragate.autodiff import Tape, Tensor


def fd_grad(f, arrays, index, step=1e-6):
    """Independent central-difference oracle; only ever calls the forward."""
    work = [np.array(a, dtype=np.float64) for a in arrays]
    target = work[index]
    grad = np.zeros_like(target)
    flat, gflat = target.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(*work))
        flat[i] = orig - step
        fm = float(f(*work))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _tensors_held(fn) -> list:
    """Every ``Tensor`` a function's closure cells hold, through nested
    functions and containers."""
    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return found


@pytest.fixture
def records_hold_no_tensor(monkeypatch):
    """Fail at any tape record whose closure holds a ``Tensor``: the record
    would keep that tensor's data alive until the tape is dropped."""
    record = Tape.record

    def checked(tape, fn):
        assert _tensors_held(fn) == [], fn
        return record(tape, fn)

    monkeypatch.setattr(Tape, "record", checked)

import signal
import types
from contextlib import contextmanager

import numpy as np
import pytest

import loragate.harness as harness
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


@pytest.fixture
def serial_solo_runs(monkeypatch):
    """Fork no helper: ``harness.run_seed`` runs a seed's orders here, one
    after another, and ``run_stream`` without a caller's ``SoloRuns`` reads
    the solo runs of ``order[1:]`` here, after the stream. For tests that
    watch calls or objects in-process (a helper's happen in a forked one)."""
    monkeypatch.setattr(harness, "second_core_free", lambda: False)


@pytest.fixture
def helper_solo_runs(monkeypatch):
    """Fork a helper whatever the CPU count of the machine: ``harness.run_seed``
    splits every seed with one, so ``run_stream`` without a caller's
    ``SoloRuns`` trains the solo runs of ``order[1:]`` in one."""
    monkeypatch.setattr(harness, "second_core_free", lambda: True)


@contextmanager
def time_limit(seconds: float):
    """Fail the test from inside the body once it has run ``seconds``, so a
    hang fails it instead of stalling the suite (main thread only). The
    failure is no ``Exception``, so no handler in the code under test takes
    it for an error of its own."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

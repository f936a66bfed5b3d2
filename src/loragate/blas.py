"""One OpenBLAS thread for the duration of a run.

A training step multiplies 512x64 by 64x64 matrices, which is past the size
at which OpenBLAS splits a product across its threads.
Between the many small products of a step its extra threads busy-wait: on
two cores a run then takes twice the CPU time for about the same wall time,
and two ``--jobs`` workers, each with a spinning thread, run slower together
than one worker alone. With one BLAS thread per run, processes are the only
parallelism (see ``harness``): ``run_stream`` and the solo training of
``harness.SoloRuns`` each enter ``one_blas_thread``, in whichever process
they run.

The thread count is set through the OpenBLAS library numpy has already loaded,
found by path in ``/proc/self/maps`` on first use, never at import. The setting
is process-global, so it also holds for any other thread of the process while
a run is inside ``one_blas_thread``. Where no OpenBLAS is loaded (another BLAS,
another OS) ``one_blas_thread`` does nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# (setter, getter) symbol pairs across OpenBLAS builds, tried in this order
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def openblas_threads() -> Optional[tuple[Callable[[int], None], Callable[[], int]]]:
    """The (set, get) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line]
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread, then restore the caller's count."""
    found = openblas_threads()
    if found is None:
        yield
        return
    setter, getter = found
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)

"""Array store: one numpy ``.npy`` file per array plus a manifest; read it
back with ``np.load(path, allow_pickle=False)`` and ``json.load``.

Layout of a store directory:

* ``manifest.json`` — ``{"meta": {...}}``
* one ``<name>.npy`` per array, written by ``np.save`` with pickling off: a
  header with the dtype and shape, then the array's bytes.

Round trips are bit-exact. ``save_arrays`` raises ``StoreError`` for a name
that is not ``[A-Za-z0-9][A-Za-z0-9._-]*``, before it writes anything, so each
name is its file's stem. Saving into a store replaces all of its arrays: the
``.npy`` files of an earlier save are deleted first. ``np.save`` raises
``ValueError`` for an object array, so no store holds pickled data.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import StoreError

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def save_arrays(directory, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    for name in arrays:
        if not _NAME.fullmatch(name):
            raise StoreError(f"array name {name!r} is not a safe file name")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.npy"):
        stale.unlink()
    for name, arr in arrays.items():
        np.save(directory / f"{name}.npy", arr, allow_pickle=False)
    with open(directory / "manifest.json", "w") as fh:
        json.dump({"meta": meta or {}}, fh, indent=2, sort_keys=True)
        fh.write("\n")


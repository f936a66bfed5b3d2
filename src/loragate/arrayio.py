"""Array store: one numpy ``.npy`` file per array plus a manifest.

Layout of a store directory:

* ``manifest.json`` — ``{"meta": {...}}``
* one ``<name>.npy`` per array, written by ``np.save`` with pickling off: a
  header with the dtype and shape, then the array's bytes.

Round trips are bit-exact. ``save_arrays`` raises ``StoreError`` for a name
that is not ``[A-Za-z0-9][A-Za-z0-9._-]*``, before it writes anything, so each
name is its file's stem. Saving into a store replaces all of its arrays: the
``.npy`` files of an earlier save are deleted first. ``load_arrays`` reads
every ``*.npy`` of the store under its stem. It raises ``StoreError`` for a
manifest that is not an object holding only a ``meta`` object, and for an
``.npy`` file that numpy cannot read without pickling: a bad header, a
truncated array or an object array.
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


def load_arrays(directory) -> tuple[dict[str, np.ndarray], dict]:
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict) and manifest.keys() == {"meta"}
            and isinstance(manifest["meta"], dict)):
        raise StoreError(f"{directory / 'manifest.json'} is not an object holding "
                         f"only a 'meta' object")
    arrays = {}
    for path in sorted(directory.glob("*.npy")):
        try:
            arrays[path.stem] = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise StoreError(f"array {path.stem!r}: {exc}") from None
    return arrays, manifest["meta"]

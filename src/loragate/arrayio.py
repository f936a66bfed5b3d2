"""Raw array store: one little-endian binary file per array plus a manifest.

Layout of a store directory:

* ``manifest.json`` — ``{"arrays": {name: {"file", "shape", "dtype"}}, "meta": {...}}``
* one ``<name>.bin`` per array: the C-order (row-major) little-endian bytes of
  the array, nothing else.

Round trips are bit-exact: bytes are written with ``ndarray.tobytes`` and read
back with ``frombuffer`` at the recorded dtype and shape. Two names that map
to the same file are rejected on save. On load, a manifest that does not have
this layout, and an entry whose file lies outside the store directory or whose
byte length does not match its shape and dtype, raise ``StoreError``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import StoreError

_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _filename(name: str) -> str:
    return _SAFE.sub("_", name) + ".bin"


def save_arrays(directory, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    files: dict[str, str] = {}
    for name in sorted(arrays):
        other = files.setdefault(_filename(name), name)
        if other != name:
            raise StoreError(f"array names {other!r} and {name!r} both map to "
                             f"file {_filename(name)!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"arrays": {}, "meta": meta or {}}
    for fname, name in files.items():
        arr = np.ascontiguousarray(arrays[name])
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        (directory / fname).write_bytes(little.tobytes(order="C"))
        manifest["arrays"][name] = {
            "file": fname,
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
        }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _entry_dtype(name: str, entry) -> np.dtype:
    """The dtype of a manifest entry that has a file name, a shape and a dtype."""
    if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
            and isinstance(entry.get("dtype"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])):
        raise StoreError(f"manifest entry {name!r} needs a 'file' name, a 'shape' "
                         f"list of sizes and a 'dtype' name, got {entry!r}")
    try:
        return np.dtype(entry["dtype"])
    except TypeError as exc:
        raise StoreError(f"manifest entry {name!r}: {exc}") from None


def load_arrays(directory) -> tuple[dict[str, np.ndarray], dict]:
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("arrays"), dict):
        raise StoreError(f"{directory / 'manifest.json'} is not an object with an "
                         f"'arrays' object")
    root = directory.resolve()
    arrays = {}
    for name, entry in manifest["arrays"].items():
        dtype = _entry_dtype(name, entry)
        path = (directory / entry["file"]).resolve()
        if path.parent != root:
            raise StoreError(f"manifest entry {name!r} points outside the store: "
                             f"{entry['file']!r}")
        raw = path.read_bytes()
        if len(raw) != int(np.prod(entry["shape"])) * dtype.itemsize:
            raise StoreError(f"array {name!r}: {entry['file']!r} holds {len(raw)} bytes, "
                             f"not shape {entry['shape']} of {entry['dtype']}")
        arr = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).reshape(entry["shape"])
        arrays[name] = arr.astype(dtype, copy=True)
    return arrays, manifest.get("meta", {})

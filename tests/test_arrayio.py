import json

import numpy as np
import pytest

from loragate.arrayio import load_arrays, save_arrays
from loragate.errors import StoreError


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = {
        "blk0.q": rng.normal(size=(3, 5)).astype(np.float32),
        "down": rng.normal(size=4),
        "mask": (rng.random((2, 3, 2)) > 0.5).astype(np.uint8),
    }
    arrays["blk0.q"][0, :3] = [np.nan, -0.0, np.inf]
    meta = {"task_position": 1, "thresholds": {"blk0.q": 0.123456789}}
    save_arrays(tmp_path / "store", arrays, meta)
    back, back_meta = load_arrays(tmp_path / "store")
    assert back_meta == meta
    assert sorted(back) == sorted(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_names_mapping_to_one_file_rejected(tmp_path):
    with pytest.raises(StoreError, match="'a/b' and 'a_b' both map to file 'a_b.bin'"):
        save_arrays(tmp_path / "store", {"a/b": np.zeros(2), "a_b": np.ones(2)})
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("escape", ["../secret.bin", "{root}/secret.bin"])
def test_manifest_file_outside_store_rejected(tmp_path, escape):
    (tmp_path / "secret.bin").write_bytes(np.arange(2.0).tobytes())
    store = tmp_path / "store"
    save_arrays(store, {"x": np.zeros(2)})
    manifest = json.loads((store / "manifest.json").read_text())
    manifest["arrays"]["x"]["file"] = escape.format(root=tmp_path)
    (store / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="outside the store"):
        load_arrays(store)


@pytest.mark.parametrize("length", [0, 17, 23, 28])
def test_file_length_must_match_shape(tmp_path, length):
    store = tmp_path / "store"
    save_arrays(store, {"blk0.q": np.zeros((2, 3), dtype=np.float32)})  # 24 bytes
    path = store / "blk0.q.bin"
    path.write_bytes((path.read_bytes() + bytes(8))[:length])
    with pytest.raises(StoreError, match="'blk0.q'.* bytes, not shape"):
        load_arrays(store)


@pytest.mark.parametrize("manifest", [
    [],
    "arrays",
    {},
    {"arrays": []},
    {"arrays": {"x": "x.bin"}},
    {"arrays": {"x": {"shape": [2], "dtype": "float64"}}},
    {"arrays": {"x": {"file": "x.bin", "dtype": "float64"}}},
    {"arrays": {"x": {"file": "x.bin", "shape": [2]}}},
    {"arrays": {"x": {"file": "x.bin", "shape": 2, "dtype": "float64"}}},
    {"arrays": {"x": {"file": "x.bin", "shape": [-2], "dtype": "float64"}}},
    {"arrays": {"x": {"file": "x.bin", "shape": [2], "dtype": "no-such-type"}}},
])
def test_malformed_manifest_rejected(tmp_path, manifest):
    store = tmp_path / "store"
    save_arrays(store, {"x": np.zeros(2)})
    (store / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="manifest"):
        load_arrays(store)

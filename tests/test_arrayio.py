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


def test_save_replaces_every_array(tmp_path):
    # a rerun into the same output directory may dump fewer layers
    store = tmp_path / "store"
    save_arrays(store, {"blk0.q": np.zeros(2), "blk3.q": np.zeros(2)}, {"run": 1})
    save_arrays(store, {"blk0.q": np.ones(2)}, {"run": 2})
    back, meta = load_arrays(store)
    assert sorted(back) == ["blk0.q"] and meta == {"run": 2}
    np.testing.assert_array_equal(back["blk0.q"], np.ones(2))


@pytest.mark.parametrize("name", ["a/b", "../x", ".hidden"])
def test_unsafe_name_rejected(tmp_path, name):
    with pytest.raises(StoreError, match="not a safe file name"):
        save_arrays(tmp_path / "store", {"ok": np.zeros(2), name: np.ones(2)})
    assert not (tmp_path / "store").exists()


# a cut at 0 bytes, twice inside the header, and inside the data; numpy reads
# a whole array and ignores bytes after it, so only a short file fails
@pytest.mark.parametrize("length", [0, 17, 23, -4])
def test_file_length_must_match_shape(tmp_path, length):
    store = tmp_path / "store"
    save_arrays(store, {"blk0.q": np.zeros((2, 3), dtype=np.float32)})
    path = store / "blk0.q.npy"
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(StoreError, match="array 'blk0.q'"):
        load_arrays(store)


def test_object_array_rejected(tmp_path):
    store = tmp_path / "store"
    save_arrays(store, {"x": np.zeros(2)})
    np.save(store / "x.npy", np.array([{"a": 1}], dtype=object), allow_pickle=True)
    with pytest.raises(StoreError, match="array 'x'"):
        load_arrays(store)


# manifests of the .bin layout, whole or damaged, must not read as a store of
# no arrays; neither must a manifest that is not an object holding only a
# 'meta' object
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
    {"meta": []},
    {"arrays": {}, "meta": {}},
])
def test_malformed_manifest_rejected(tmp_path, manifest):
    store = tmp_path / "store"
    save_arrays(store, {"x": np.zeros(2)})
    (store / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="manifest"):
        load_arrays(store)

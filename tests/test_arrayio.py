import json

import numpy as np
import pytest

from loragate.arrayio import save_arrays
from loragate.errors import StoreError


def load_store(directory):
    """Every array of a store by name, and its meta, read back with numpy and
    json alone."""
    arrays = {p.stem: np.load(p, allow_pickle=False) for p in directory.glob("*.npy")}
    with open(directory / "manifest.json") as fh:
        return arrays, json.load(fh)["meta"]


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = {
        "blk0.q": rng.normal(size=(3, 5)).astype(np.float32),
        "down": rng.normal(size=4),
        "mask": (rng.random((2, 3, 2)) > 0.5).astype(np.uint8),
    }
    arrays["blk0.q"][0, :3] = [np.nan, -0.0, np.inf]
    meta = {"task_position": 1, "thresholds": {"blk0.q": 0.123456789}}
    save_arrays(tmp_path / "store", arrays, meta)
    back, back_meta = load_store(tmp_path / "store")
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
    back, meta = load_store(store)
    assert sorted(back) == ["blk0.q"] and meta == {"run": 2}
    np.testing.assert_array_equal(back["blk0.q"], np.ones(2))


@pytest.mark.parametrize("name", ["a/b", "../x", ".hidden"])
def test_unsafe_name_rejected(tmp_path, name):
    with pytest.raises(StoreError, match="not a safe file name"):
        save_arrays(tmp_path / "store", {"ok": np.zeros(2), name: np.ones(2)})
    assert not (tmp_path / "store").exists()


def test_object_array_rejected(tmp_path):
    # a store never holds pickled data, and a refused save leaves it as it was
    store = tmp_path / "store"
    save_arrays(store, {"a": np.zeros(2)}, {"run": 1})
    with pytest.raises(ValueError, match="allow_pickle"):
        save_arrays(store, {"b": np.ones(2), "x": np.array([{"a": 1}], dtype=object)})
    assert sorted(p.name for p in store.iterdir()) == ["a.npy", "manifest.json"]
    assert load_store(store)[1] == {"run": 1}

import json
import struct

import numpy as np
import pytest

from treepolicy.binio import MAGIC, read_blocks, write_blocks
from treepolicy.dataio import NormalizationStats
from treepolicy.diffmath import init_dense
from treepolicy.errors import ConfigError
from treepolicy.teacher import load_checkpoint, load_states, save_checkpoint, save_states

from conftest import drop_entry, edit_container, replace_block, write_old_replay_buffer

BLOCKS = [("w", np.arange(6.0).reshape(2, 3), "f8"), ("n", np.arange(4.0), "f4"),
          ("flags", np.array([1.0, 0.0, 1.0]), "f8")]


@pytest.fixture
def container(tmp_path):
    path = tmp_path / "c.bin"
    write_blocks(str(path), {"kind": "test/v1"}, BLOCKS)
    return path


def boundaries(data: bytes) -> dict[str, int]:
    """Byte offset where each part of the container ends."""
    (hlen,) = struct.unpack("<I", data[len(MAGIC):len(MAGIC) + 4])
    ends = {"magic": len(MAGIC), "length": len(MAGIC) + 4, "header": len(MAGIC) + 4 + hlen}
    end = ends["header"]
    for name, arr, code in BLOCKS:
        end += arr.size * np.dtype(code).itemsize
        ends[name] = end
    return ends


def test_round_trip(container):
    meta, arrays = read_blocks(str(container))
    assert meta == {"kind": "test/v1"}
    for name, arr, _ in BLOCKS:
        assert arrays[name].dtype == np.float64
        np.testing.assert_array_equal(arrays[name], arr)


def test_file_bytes_are_the_layout(container):
    # magic, header length, the sorted-key JSON header, then each block's
    # little-endian bytes in order
    entries = [{"name": name, "shape": list(arr.shape), "dtype": code}
               for name, arr, code in BLOCKS]
    header = json.dumps({"meta": {"kind": "test/v1"}, "blocks": entries},
                        sort_keys=True).encode("utf-8")
    body = b"".join(arr.astype("<" + code).tobytes() for _, arr, code in BLOCKS)
    assert container.read_bytes() == MAGIC + struct.pack("<I", len(header)) + header + body


@pytest.mark.parametrize("view", [lambda a: a.T, lambda a: a[:, ::2],
                                  lambda a: a.astype(">f8")],
                         ids=["transposed", "strided", "big-endian"])
def test_block_is_written_as_its_values_in_row_order(tmp_path, view):
    arr = view(np.arange(12.0).reshape(3, 4))
    path = tmp_path / "c.bin"
    write_blocks(str(path), {}, [("w", arr, "f8")])
    assert path.read_bytes().endswith(np.array(arr.tolist(), dtype="<f8").tobytes())
    np.testing.assert_array_equal(read_blocks(str(path))[1]["w"], arr)


def test_every_part_ends_where_expected(container):
    assert boundaries(container.read_bytes())["flags"] == container.stat().st_size


@pytest.mark.parametrize("part", ["magic", "length", "header", "w", "n", "flags"])
@pytest.mark.parametrize("where", ["at", "inside"])
def test_cut_file_names_it(container, part, where):
    data = container.read_bytes()
    ends = boundaries(data)
    starts = dict(zip(ends, [0, *ends.values()]))
    # cut at the start of the part (it is missing) or one byte into it
    cut = starts[part] + (1 if where == "inside" else 0)
    container.write_bytes(data[:cut])
    with pytest.raises(ConfigError, match="c.bin"):
        read_blocks(str(container))


def test_trailing_bytes_rejected(container):
    container.write_bytes(container.read_bytes() + b"\0")
    with pytest.raises(ConfigError, match="c.bin.*trailing"):
        read_blocks(str(container))


def test_corrupt_header_rejected(container):
    data = bytearray(container.read_bytes())
    data[len(MAGIC) + 4] = ord("]")
    container.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match="c.bin.*header"):
        read_blocks(str(container))


def write_raw(path, header: dict, payload: bytes = b"") -> None:
    """A container with a hand-written JSON header."""
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)


def shaped(shape) -> dict:
    return {"meta": {}, "blocks": [{"name": "w", "shape": shape, "dtype": "f8"}]}


@pytest.mark.parametrize("header", [{"meta": {}}, {"blocks": []}, [], {"meta": 3, "blocks": []},
                                    shaped("ab"), shaped([-1]), shaped([2.5]), shaped([True])],
                         ids=["no-blocks", "no-meta", "not-an-object", "meta-not-an-object",
                              "shape-text", "shape-negative", "shape-fraction", "shape-bool"])
def test_header_without_meta_or_blocks_rejected(tmp_path, header):
    path = tmp_path / "c.bin"
    write_raw(path, header)
    with pytest.raises(ConfigError, match="c.bin.*header"):
        read_blocks(str(path))


@pytest.mark.parametrize("missing", ["name", "shape", "dtype"])
def test_block_entry_missing_field_rejected(tmp_path, missing):
    entry = {"name": "w", "shape": [2], "dtype": "f8"}
    del entry[missing]
    path = tmp_path / "c.bin"
    write_raw(path, {"meta": {}, "blocks": [entry]}, bytes(16))
    with pytest.raises(ConfigError, match="c.bin.*header"):
        read_blocks(str(path))


def test_unknown_dtype_rejected(tmp_path):
    # the int and bool codes of the replay-buffer/v1 format included
    path = tmp_path / "c.bin"
    for code in ("f2", "i8", "u1"):
        write_raw(path, {"meta": {}, "blocks": [{"name": "w", "shape": [2], "dtype": code}]},
                  bytes(16))
        with pytest.raises(ConfigError, match=f"c.bin.*'w'.*dtype '{code}'"):
            read_blocks(str(path))


def save_each_artifact(tmp_path) -> dict:
    """One small file of each artifact kind, by the loader that reads it back."""
    rng = np.random.default_rng(0)
    paths = {load_checkpoint: tmp_path / "teacher.ckpt", load_states: tmp_path / "replay.buf"}
    save_checkpoint(init_dense([5, 4, 5], rng),
                    NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9),
                    str(paths[load_checkpoint]))
    save_states(rng.uniform(size=(3, 5)), str(paths[load_states]))
    return paths


ARTIFACT_PARTS = (
    [(load_checkpoint, n) for n in ("layer_sizes", "normalization", "w0", "b0", "w1", "b1")]
    + [(load_states, "states")]
)


def test_every_artifact_loads_as_saved_and_only_as_its_kind(tmp_path):
    paths = save_each_artifact(tmp_path)
    for loader, path in paths.items():
        loader(str(path))
        for other in paths.values():
            if other != path:
                with pytest.raises(ConfigError, match=f"{other.name}.*is not a"):
                    loader(str(other))


@pytest.mark.parametrize("loader,name", ARTIFACT_PARTS,
                         ids=[f"{loader.__name__}-{name}" for loader, name in ARTIFACT_PARTS])
def test_artifact_without_meta_key_or_block_rejected(tmp_path, loader, name):
    path = save_each_artifact(tmp_path)[loader]
    drop_entry(path, name)
    with pytest.raises(ConfigError, match=f"{path.name}.*{name}"):
        loader(str(path))


def test_old_replay_buffer_rejected(tmp_path):
    path = tmp_path / "replay.buf"
    write_old_replay_buffer(path, np.random.default_rng(0).uniform(size=(3, 5)))
    with pytest.raises(ConfigError, match="replay.buf.*is not a replay-states/v1 artifact"):
        load_states(str(path))


SAVED_NORMALIZATION = {"price_min": 0.05, "price_max": 0.25, "demand_min": 0.2,
                       "demand_max": 4.1, "pv_min": 0.0, "pv_max": 1.9}

BAD_NORMALIZATION = {
    "lacks-demand-max": ({"price_min": 0.05, "price_max": 0.25, "demand_min": 0.2,
                          "pv_min": 0.0, "pv_max": 1.9}, "lacks 'demand_max'"),
    "not-an-object": (3, "not an object"),
    "text-field": ({"price_min": "low", "price_max": 0.25, "demand_min": 0.2,
                    "demand_max": 4.1, "pv_min": 0.0, "pv_max": 1.9},
                   "'price_min' is not a number"),
    "nan-field": ({**SAVED_NORMALIZATION, "price_min": float("nan")},
                  "'price_min' is not finite"),
    "infinite-field": ({**SAVED_NORMALIZATION, "demand_max": float("inf")},
                       "'demand_max' is not finite"),
    "negative-infinite-field": ({**SAVED_NORMALIZATION, "pv_min": -float("inf")},
                                "'pv_min' is not finite"),
    "min-above-max": ({**SAVED_NORMALIZATION, "price_min": 0.3},
                      "'price_min' 0.3 is above 'price_max' 0.25"),
    "pv-min-above-max": ({**SAVED_NORMALIZATION, "pv_min": 2.0},
                         "'pv_min' 2.0 is above 'pv_max' 1.9"),
}


@pytest.mark.parametrize("value,message", BAD_NORMALIZATION.values(), ids=BAD_NORMALIZATION)
def test_checkpoint_with_bad_normalization_names_field_and_file(tmp_path, value, message):
    path = save_each_artifact(tmp_path)[load_checkpoint]
    edit_container(path, normalization=value)
    with pytest.raises(ConfigError, match=f"{path.name}.*normalization.*{message}"):
        load_checkpoint(str(path))



# layer sizes of the wrong type (a text, a fraction or a bool standing for a width)
# or out of range (a network without a layer or width)
BAD_META_NUMBERS = {
    "checkpoint-layer-sizes-fraction": (load_checkpoint, "layer_sizes", [5, 4.0, 5]),
    "checkpoint-layer-sizes-bool": (load_checkpoint, "layer_sizes", [5, True, 5]),
    "checkpoint-layer-sizes-text": (load_checkpoint, "layer_sizes", "5,4,5"),
    "checkpoint-layer-sizes-zero-width": (load_checkpoint, "layer_sizes", [5, 0, 5]),
    "checkpoint-layer-sizes-negative-width": (load_checkpoint, "layer_sizes", [5, -64, 5]),
    "checkpoint-layer-sizes-one-entry": (load_checkpoint, "layer_sizes", [5]),
    "checkpoint-layer-sizes-empty": (load_checkpoint, "layer_sizes", []),
    "checkpoint-layer-sizes-three-actions": (load_checkpoint, "layer_sizes", [5, 4, 3]),
    "checkpoint-layer-sizes-four-features": (load_checkpoint, "layer_sizes", [4, 4, 5]),
}


@pytest.mark.parametrize("loader,key,value", BAD_META_NUMBERS.values(), ids=BAD_META_NUMBERS)
def test_meta_number_of_wrong_type_names_file_and_key(tmp_path, loader, key, value):
    path = save_each_artifact(tmp_path)[loader]
    edit_container(path, **{key: value})
    with pytest.raises(ConfigError, match=f"{path.name}.*'{key}' must be"):
        loader(str(path))


def with_entry(value):
    """A copy of a block with its second entry set to ``value``."""
    def edit(block):
        block = block.copy()
        block.flat[1] = value
        return block
    return edit


# the saved network is [5, 4, 5]: blocks w0 (5, 4), b0 (4,), w1 (4, 5) and b1 (5,)
BAD_CHECKPOINT_BLOCKS = {
    "w0-one-row-short": ("w0", lambda w: w[:4], r"block 'w0' has shape \(4, 4\)"),
    "w1-one-column-short": ("w1", lambda w: w[:, :4], r"block 'w1' has shape \(4, 4\)"),
    "b0-one-entry-long": ("b0", lambda b: np.append(b, 0.0), r"block 'b0' has shape \(5,\)"),
    "b1-one-row-matrix": ("b1", lambda b: b[None], r"block 'b1' has shape \(1, 5\)"),
    "w1-nan": ("w1", with_entry(float("nan")), "block 'w1' has non-finite entries"),
    "b0-infinite": ("b0", with_entry(float("inf")), "block 'b0' has non-finite entries"),
    "w0-negative-infinite": ("w0", with_entry(-float("inf")),
                             "block 'w0' has non-finite entries"),
}


@pytest.mark.parametrize("name,edit,message", BAD_CHECKPOINT_BLOCKS.values(),
                         ids=BAD_CHECKPOINT_BLOCKS)
def test_checkpoint_block_of_wrong_shape_or_non_finite_names_file_and_block(tmp_path, name,
                                                                             edit, message):
    path = save_each_artifact(tmp_path)[load_checkpoint]
    replace_block(path, name, edit(read_blocks(str(path))[1][name]))
    with pytest.raises(ConfigError, match=f"{path.name}.*{message}"):
        load_checkpoint(str(path))


# the saved states are (3, 5)
BAD_STATES_BLOCKS = {
    "one-column-short": (lambda s: s[:, :4], r"block 'states' has shape \(3, 4\)"),
    "one-column-long": (lambda s: np.hstack([s, s[:, :1]]), r"has shape \(3, 6\)"),
    "no-rows": (lambda s: s[:0], r"block 'states' has shape \(0, 5\)"),
    "one-dimensional": (lambda s: s[0], r"block 'states' has shape \(5,\)"),
    "three-dimensional": (lambda s: s[None], r"block 'states' has shape \(1, 3, 5\)"),
    "nan": (with_entry(float("nan")), "block 'states' has non-finite entries"),
    "infinite": (with_entry(float("inf")), "block 'states' has non-finite entries"),
    "negative-infinite": (with_entry(-float("inf")), "block 'states' has non-finite entries"),
}


@pytest.mark.parametrize("edit,message", BAD_STATES_BLOCKS.values(), ids=BAD_STATES_BLOCKS)
def test_states_block_of_wrong_shape_or_non_finite_names_file_and_block(tmp_path, edit,
                                                                         message):
    path = save_each_artifact(tmp_path)[load_states]
    replace_block(path, "states", edit(read_blocks(str(path))[1]["states"]))
    with pytest.raises(ConfigError, match=f"{path.name}.*{message}"):
        load_states(str(path))


@pytest.mark.parametrize("layer_sizes", [[5, 8, 3], [4, 8, 5], [5, 8, 8, 6]],
                         ids=["three-actions", "four-features", "six-actions"])
def test_checkpoint_of_another_feature_or_action_count_rejected(tmp_path, layer_sizes):
    # blocks and layer_sizes agree, but the net does not map the env's states to its actions
    path = tmp_path / "teacher.ckpt"
    save_checkpoint(init_dense(layer_sizes, np.random.default_rng(0)),
                    NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9), str(path))
    with pytest.raises(ConfigError, match=r"teacher.ckpt.*'layer_sizes' must be \[5, \.\.\., 5\]"):
        load_checkpoint(str(path))


def test_integral_meta_numbers_load_as_saved(tmp_path):
    # a bound written as the integer 0 is a number; it loads as the float 0.0, and
    # equal bounds (a day set without PV) are legal
    path = save_each_artifact(tmp_path)[load_checkpoint]
    edit_container(path, normalization={**SAVED_NORMALIZATION, "pv_min": 0, "pv_max": 0})
    _, stats = load_checkpoint(str(path))
    assert type(stats.pv_min) is float and stats.pv_min == stats.pv_max == 0.0

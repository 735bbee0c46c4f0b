import json
import struct

import numpy as np
import pytest

from treepolicy.binio import MAGIC, read_blocks, write_blocks
from treepolicy.dataio import NormalizationStats
from treepolicy.distill import DistillationDataset, load_dataset, save_dataset
from treepolicy.errors import ConfigError
from treepolicy.teacher import (
    ReplayBuffer,
    TeacherAgent,
    load_buffer,
    load_checkpoint,
    save_buffer,
    save_checkpoint,
)

from conftest import drop_entry, edit_container

BLOCKS = [("w", np.arange(6.0).reshape(2, 3), "f8"), ("n", np.arange(4), "i8"),
          ("flags", np.array([True, False, True]), "u1")]


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
        np.testing.assert_array_equal(arrays[name], arr)


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
    path = tmp_path / "c.bin"
    write_raw(path, {"meta": {}, "blocks": [{"name": "w", "shape": [2], "dtype": "f2"}]},
              bytes(4))
    with pytest.raises(ConfigError, match="c.bin.*'w'.*dtype 'f2'"):
        read_blocks(str(path))


def save_each_artifact(tmp_path) -> dict:
    """One small file of each artifact kind, by the loader that reads it back."""
    rng = np.random.default_rng(0)
    agent = TeacherAgent.create([5, 4, 5], 0.001, 0.99, 0.1, rng)
    buf = ReplayBuffer(capacity=4)
    for _ in range(3):
        buf.push(rng.uniform(size=5), 1, 0.5, rng.uniform(size=5), False)
    paths = {load_checkpoint: tmp_path / "teacher.ckpt", load_buffer: tmp_path / "replay.buf",
             load_dataset: tmp_path / "dataset.bin"}
    save_checkpoint(agent, NormalizationStats(0.05, 0.25, 0.2, 4.1, 0.0, 1.9),
                    str(paths[load_checkpoint]))
    save_buffer(buf, str(paths[load_buffer]))
    save_dataset(DistillationDataset(buf.states[:3], rng.normal(size=(3, 5))),
                 str(paths[load_dataset]))
    return paths


ARTIFACT_PARTS = (
    [(load_checkpoint, n) for n in ("layer_sizes", "gamma", "target_blend", "normalization",
                                    "w0", "b0", "w1", "b1")]
    + [(load_buffer, n) for n in ("capacity", "size", "cursor", "states", "actions", "costs",
                                  "next_states", "terminals")]
    + [(load_dataset, n) for n in ("provenance", "states", "teacher_q")]
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


BUFFER_ROWS = ("states", "actions", "costs", "next_states", "terminals")

# the saved buffer holds 3 rows at capacity 4 with cursor 3
INCONSISTENT_BUFFERS = {
    "size-below-rows": ({}, {"size": 2}),
    "size-above-rows": ({}, {"size": 4}),
    "one-row-stored-for-size-3": (dict.fromkeys(BUFFER_ROWS, 1), {}),
    "one-block-short": ({"costs": 2}, {}),
    "size-above-capacity": ({}, {"capacity": 2, "cursor": 0}),
    "size-9-capacity-4": ({}, {"size": 9}),
    "cursor-negative": ({}, {"cursor": -1}),
    "cursor-at-capacity": ({}, {"cursor": 4}),
}


@pytest.mark.parametrize("rows,meta", INCONSISTENT_BUFFERS.values(), ids=INCONSISTENT_BUFFERS)
def test_buffer_inconsistent_with_its_blocks_rejected(tmp_path, rows, meta):
    path = save_each_artifact(tmp_path)[load_buffer]
    edit_container(path, rows, **meta)
    with pytest.raises(ConfigError, match=f"{path.name}.*inconsistent"):
        load_buffer(str(path))


BAD_NORMALIZATION = {
    "lacks-demand-max": ({"price_min": 0.05, "price_max": 0.25, "demand_min": 0.2,
                          "pv_min": 0.0, "pv_max": 1.9}, "lacks 'demand_max'"),
    "not-an-object": (3, "not an object"),
    "text-field": ({"price_min": "low", "price_max": 0.25, "demand_min": 0.2,
                    "demand_max": 4.1, "pv_min": 0.0, "pv_max": 1.9},
                   "'price_min' is not a number"),
}


@pytest.mark.parametrize("value,message", BAD_NORMALIZATION.values(), ids=BAD_NORMALIZATION)
def test_checkpoint_with_bad_normalization_names_field_and_file(tmp_path, value, message):
    path = save_each_artifact(tmp_path)[load_checkpoint]
    edit_container(path, normalization=value)
    with pytest.raises(ConfigError, match=f"{path.name}.*normalization.*{message}"):
        load_checkpoint(str(path))


"""Small deterministic binary container of float blocks for the teacher's artifacts.

Layout: one magic line, a 4-byte little-endian header length, a JSON header
(sorted keys), then the raw array blocks in the order the header lists them.
No timestamps or platform fields anywhere, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ConfigError

MAGIC = b"treepolicy-bin/v1\n"

_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


def write_blocks(path: str, meta: dict, blocks: list[tuple[str, np.ndarray, str]]) -> None:
    """Write ``blocks`` of (name, array, dtype code) preceded by a JSON header."""
    arrays = [np.ascontiguousarray(arr, dtype=_DTYPES[code]) for _name, arr, code in blocks]
    entries = [{"name": name, "shape": list(arr.shape), "dtype": code}
               for (name, _arr, code), arr in zip(blocks, arrays)]
    header = json.dumps({"meta": meta, "blocks": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr.data)


class _Table(dict):
    """Meta or blocks of the file at ``path``; a missing entry raises ``ConfigError``."""

    def __missing__(self, name):
        raise ConfigError(f"{self.path!r} lacks {name!r}")


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ConfigError(f"{path!r} is truncated: {what} needs {n} bytes, {len(data)} remain")
    return data


def read_blocks(path: str, kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back into (meta, {name: float64 array}).

    A file cut short anywhere, a header that is not JSON or lacks ``meta``,
    ``blocks`` or a block's ``name``, known ``dtype`` or ``shape`` (a list of
    non-negative integers), bytes past the last block, a ``kind`` other than
    the one given, reading a key or block the file lacks, or a path that cannot be
    opened (missing, a directory, unreadable) raise ``ConfigError`` naming the file.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from None
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigError(f"{path!r} is not a {MAGIC.strip().decode()} artifact")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "the header length"))
        raw = _read_exact(fh, hlen, path, "the header")
        try:
            header = json.loads(raw.decode("utf-8"))
            meta, entries = _Table(header["meta"]), header["blocks"]
            blocks = [(e["name"], e["shape"], e["dtype"]) for e in entries]
        except (ValueError, KeyError, TypeError):
            raise ConfigError(f"{path!r} has a corrupt header") from None
        if kind is not None and meta.get("kind") != kind:
            raise ConfigError(f"{path!r} is not a {kind} artifact")
        arrays = _Table()
        meta.path = arrays.path = path
        for name, shape, code in blocks:
            if code not in _DTYPES:
                raise ConfigError(f"{path!r} block {name!r} has unknown dtype {code!r}")
            if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
                raise ConfigError(f"{path!r} has a corrupt header: block {name!r} has shape "
                                  f"{shape!r}, not a list of non-negative integers")
            dtype = _DTYPES[code]
            count = int(np.prod(shape)) if shape else 1
            buf = _read_exact(fh, count * dtype.itemsize, path, f"block {name!r}")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).astype(np.float64)
        if fh.read(1):
            raise ConfigError(f"{path!r} has trailing bytes after its last block")
    return meta, arrays

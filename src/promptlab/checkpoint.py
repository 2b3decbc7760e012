"""Key-to-tensor container files with a JSON header: every binary file the program writes.

Layout, all little-endian:

    magic  b"PLTC"
    u32    format version (currently 2)
    u32    header length in bytes
    bytes  header: a JSON object, utf-8, keys sorted
    u32    entry count
    entry* :
        u16      key length in bytes
        bytes    key, utf-8
        u8       rank
        u32*rank shape extents
        f64*     row-major payload

The header says what the file is (``"kind"``) and what produced it. Version 1
files, which had no header, are refused. Round-trips are exact; parse
failures report the byte offset where the file stopped making sense.
"""

import json
import math
import struct
from typing import Dict, Tuple

import numpy as np

from .errors import CheckpointError

MAGIC = b"PLTC"
VERSION = 2
# The first line of the text-headed dataset format that version 2 replaced.
_RETIRED_DATASET = b"promptlab-dataset v1\n"

__all__ = ["save_tensors", "load_tensors", "MAGIC", "VERSION"]


def save_tensors(path, tensors: Dict[str, np.ndarray], header: dict) -> None:
    """Write a key→array mapping, stored as float64, under a JSON object `header`.

    Every key, value and the header are checked and encoded before `path`
    is opened, so a refused mapping leaves an existing file as it was.
    """
    try:
        raw_header = json.dumps(dict(header), sort_keys=True, allow_nan=False).encode("utf-8")
        entries = [(key.encode("utf-8"), np.asarray(value, dtype="<f8"))
                   for key, value in tensors.items()]
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot store this header or tensor: {exc}") from exc
    for raw_key, arr in entries:
        if len(raw_key) > 0xFFFF or arr.ndim > 0xFF or max(arr.shape, default=0) >= 2**32:
            raise CheckpointError(f"key or shape too long to store: {raw_key[:40]!r}, {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(raw_header)))
        fh.write(raw_header)
        fh.write(struct.pack("<I", len(entries)))
        for raw_key, arr in entries:
            fh.write(struct.pack("<H", len(raw_key)))
            fh.write(raw_key)
            fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self.blob):
            raise CheckpointError(
                f"truncated container: wanted {count} bytes for {what} "
                f"at offset {self.offset}, only {len(self.blob) - self.offset} left"
            )
        piece = self.blob[self.offset:end]
        self.offset = end
        return piece

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_tensors(path) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a container written by :func:`save_tensors`: (key→array mapping, header)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = _Reader(blob)
    if reader.take(4, "magic") != MAGIC:
        if blob.startswith(_RETIRED_DATASET):
            raise CheckpointError("a promptlab-dataset v1 file, a format no longer read; rerun "
                                  "`promptlab make-data` with the spec and seed its header states")
        raise CheckpointError(f"not a tensor container (bad magic at offset 0): {path}")
    (version,) = reader.unpack("<I", "version")
    if version == 1:
        raise CheckpointError("a version 1 container, a format no longer read; rerun "
                              "`promptlab train --checkpoint` with the flags that wrote it")
    if version != VERSION:
        raise CheckpointError(f"unsupported container version {version} at offset 4")
    (length,) = reader.unpack("<I", "header length")
    start = reader.offset
    raw = reader.take(length, "header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or not JSON
        raise CheckpointError(f"header at offset {start} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"header at offset {start} is not a JSON object")
    (count,) = reader.unpack("<I", "entry count")
    out: Dict[str, np.ndarray] = {}
    for index in range(count):
        (key_len,) = reader.unpack("<H", f"key length of entry {index}")
        key_start = reader.offset
        try:
            key = reader.take(key_len, f"key of entry {index}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"undecodable key at offset {key_start}: {exc}") from exc
        (rank,) = reader.unpack("<B", f"rank of {key!r}")
        shape = reader.unpack(f"<{rank}I", f"shape of {key!r}")
        raw = reader.take(8 * math.prod(shape), f"payload of {key!r}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if key in out:
            raise CheckpointError(f"duplicate key {key!r} at offset {key_start}")
        out[key] = arr
    if reader.offset != len(blob):
        raise CheckpointError(
            f"trailing garbage: {len(blob) - reader.offset} bytes after offset {reader.offset}"
        )
    return out, header

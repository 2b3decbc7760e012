"""Flat key-to-tensor container files.

Layout, all little-endian:

    magic  b"PLTC"
    u32    format version (currently 1)
    u32    entry count
    entry* :
        u16      key length in bytes
        bytes    key, utf-8
        u8       rank
        u32*rank shape extents
        f64*     row-major payload

Keys are namespaced by convention: ``backbone.*`` for frozen encoder
weights, ``prompts.layer_<i>`` for prompt tensors. Round-trips are exact;
parse failures report the byte offset where the file stopped making sense.
"""

import math
import struct
from typing import Dict

import numpy as np

from .errors import CheckpointError

MAGIC = b"PLTC"
VERSION = 1

__all__ = ["save_tensors", "load_tensors", "MAGIC", "VERSION"]


def save_tensors(path, tensors: Dict[str, np.ndarray]) -> None:
    """Write a key→array mapping; arrays are stored as float64.

    Every key is checked before `path` is opened, so a refused mapping
    leaves an existing file as it was.
    """
    raw_keys = [key.encode("utf-8") for key in tensors]
    for key, raw_key in zip(tensors, raw_keys):
        if len(raw_key) > 0xFFFF:
            raise CheckpointError(f"key too long to store: {key[:40]}...")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for raw_key, value in zip(raw_keys, tensors.values()):
            arr = np.ascontiguousarray(value, dtype=np.float64)
            fh.write(struct.pack("<H", len(raw_key)))
            fh.write(raw_key)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes())


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


def load_tensors(path) -> Dict[str, np.ndarray]:
    """Read a container written by :func:`save_tensors`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = _Reader(blob)
    if reader.take(4, "magic") != MAGIC:
        raise CheckpointError(f"not a tensor container (bad magic at offset 0): {path}")
    version, count = reader.unpack("<II", "header")
    if version != VERSION:
        raise CheckpointError(f"unsupported container version {version} at offset 4")
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
    return out

import struct

import numpy as np
import pytest

from promptlab.checkpoint import MAGIC, VERSION, load_tensors, save_tensors
from promptlab.errors import CheckpointError

NONE_STACK = {"kind": "prompts", "stack": {"alpha": None, "depth_range": "1..4", "m": 8,
                                           "strategy": "none"}}


def _entry(key: bytes, values=(1.0,)) -> bytes:
    """One raw rank-1 entry."""
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<H", len(key)) + key + struct.pack("<BI", 1, values.size) + values.tobytes()


def _container(header: bytes, *entries: bytes, version=VERSION) -> bytes:
    """A hand-built container; version 1 has no header word and no header."""
    preamble = struct.pack("<I", len(header)) + header if version == VERSION else b""
    return (MAGIC + struct.pack("<I", version) + preamble + struct.pack("<I", len(entries))
            + b"".join(entries))


def _load_bytes(tmp_path, blob):
    path = tmp_path / "c.ptc"
    path.write_bytes(blob)
    return load_tensors(path)


def test_load_tensors_reports_offset_on_garbage(tmp_path):
    with pytest.raises(CheckpointError, match="offset"):
        _load_bytes(tmp_path, b"NOPE" + b"\x00" * 16)


def test_load_tensors_rejects_shape_whose_size_overflows_int64(tmp_path):
    # (2**32-1)**2 * 8 bytes wraps around in int64; it must still read as
    # a truncated payload, not as a negative size.
    key = b"prompts.layer_0"
    blob = (MAGIC + struct.pack("<II", VERSION, 2) + b"{}" + struct.pack("<IH", 1, len(key)) + key
            + struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1))
    with pytest.raises(CheckpointError, match="truncated.*offset"):
        _load_bytes(tmp_path, blob)


@pytest.mark.parametrize("tensors, header, message", [
    ({"prompts.layer_0": np.zeros((2, 3)), "k" * 0x10000: np.zeros(1)}, {}, "too long"),
    ({"a": np.zeros((2, 3)), "b": "x"}, {}, "cannot store"),
    ({"a": np.zeros((2**32, 0))}, {}, "too long"),
    ({"a": np.zeros(1)}, {"alpha": float("nan")}, "cannot store"),
    ({"a": np.zeros(1)}, {"kind": object()}, "cannot store"),
    ({"a": np.zeros(1)}, None, "cannot store"),
], ids=["long-key", "string-value", "wide-extent", "nan-header", "unencodable-header",
        "no-header"])
def test_refused_save_leaves_the_existing_file_alone(tensors, header, message, tmp_path):
    path = tmp_path / "prompts.ptc"
    save_tensors(path, {"prompts.layer_0": np.ones((2, 3))}, NONE_STACK)
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=message):
        save_tensors(path, tensors, header)
    assert path.read_bytes() == before


@pytest.mark.parametrize("tensors, header", [
    ({"prompts.layer_1": np.array([[-0.0, 1.5], [np.pi, -2.0**-1074]]), "b": np.zeros((0, 3)),
      "scalar": np.float64(-0.0)},
     {"kind": "prompts", "stack": {"strategy": "deep", "m": 2, "alpha": None},
      "note": "ü"}),
    ({}, NONE_STACK),
], ids=["negative-zero", "none-stack"])
def test_v2_round_trip_is_byte_exact(tensors, header, tmp_path):
    first, second = tmp_path / "a.ptc", tmp_path / "b.ptc"
    save_tensors(first, tensors, header)
    loaded, loaded_header = load_tensors(first)
    assert loaded_header == header
    assert list(loaded) == list(tensors)
    for key, value in tensors.items():
        assert (loaded[key].dtype, loaded[key].shape) == (np.float64, np.shape(value))
        assert loaded[key].tobytes() == np.asarray(value, dtype="<f8").tobytes()
    save_tensors(second, loaded, loaded_header)
    assert second.read_bytes() == first.read_bytes()
    assert first.read_bytes()[:4] == MAGIC and struct.unpack("<I", first.read_bytes()[4:8]) == (2,)


def test_every_proper_prefix_is_refused_with_an_offset(tmp_path):
    path = tmp_path / "full.ptc"
    save_tensors(path, {"prompts.layer_0": np.ones((2, 3)), "prompts.layer_1": -np.ones((2, 3))},
                 NONE_STACK)
    blob = path.read_bytes()
    for end in range(len(blob)):
        with pytest.raises(CheckpointError, match="offset") as info:
            _load_bytes(tmp_path, blob[:end])
        assert "truncated" in str(info.value), end


@pytest.mark.parametrize("blob, message", [
    (_container(b"{}", _entry(b"a")) + b"\x00", "trailing garbage: 1 bytes after offset 34"),
    (_container(b"{}", _entry(b"a"), _entry(b"a")), "duplicate key 'a' at offset 36"),
    (_container(b"{}", _entry(b"\xff")), "undecodable key at offset 20"),
    (_container(b"[]"), "header at offset 12 is not a JSON object"),
    (_container(b"3"), "header at offset 12 is not a JSON object"),
    (_container(b"null"), "header at offset 12 is not a JSON object"),
    (_container(b"{"), "header at offset 12 is not UTF-8 JSON"),
    (_container(b"\xff{}"), "header at offset 12 is not UTF-8 JSON"),
    (_container(b"{}", version=3), "unsupported container version 3 at offset 4"),
], ids=["trailing", "duplicate", "undecodable-key", "list-header", "number-header",
        "null-header", "cut-json", "non-utf8-header", "version-3"])
def test_malformed_container_is_refused(blob, message, tmp_path):
    with pytest.raises(CheckpointError, match=message):
        _load_bytes(tmp_path, blob)


def test_version_1_file_is_refused_naming_train(tmp_path):
    blob = _container(b"", _entry(b"prompts.layer_0", (-0.0, 2.0)), version=1)
    with pytest.raises(CheckpointError, match="version 1.*promptlab train --checkpoint"):
        _load_bytes(tmp_path, blob)

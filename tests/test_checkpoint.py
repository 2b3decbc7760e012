import struct

import numpy as np
import pytest

from promptlab.checkpoint import MAGIC, VERSION, load_tensors, save_tensors
from promptlab.errors import CheckpointError


def test_load_tensors_reports_offset_on_garbage(tmp_path):
    path = tmp_path / "garbage.ptc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="offset"):
        load_tensors(path)


def test_load_tensors_rejects_shape_whose_size_overflows_int64(tmp_path):
    # (2**32-1)**2 * 8 bytes wraps around in int64; it must still read as
    # a truncated payload, not as a negative size.
    key = b"prompts.layer_0"
    header = MAGIC + struct.pack("<IIH", VERSION, 1, len(key)) + key
    path = tmp_path / "huge.ptc"
    path.write_bytes(header + struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1))
    with pytest.raises(CheckpointError, match="truncated.*offset"):
        load_tensors(path)


def test_refused_save_leaves_the_existing_file_alone(tmp_path):
    path = tmp_path / "prompts.ptc"
    save_tensors(path, {"prompts.layer_0": np.ones((2, 3))})
    before = path.read_bytes()
    refused = {"prompts.layer_0": np.zeros((2, 3)), "k" * 0x10000: np.zeros(1)}
    with pytest.raises(CheckpointError, match="too long"):
        save_tensors(path, refused)
    assert path.read_bytes() == before

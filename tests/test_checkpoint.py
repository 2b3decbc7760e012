import pytest

from promptlab.checkpoint import load_tensors
from promptlab.errors import CheckpointError


def test_load_tensors_reports_offset_on_garbage(tmp_path):
    path = tmp_path / "garbage.ptc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="offset"):
        load_tensors(path)

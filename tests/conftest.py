import pytest

from promptlab import encoder


@pytest.fixture
def inserted_blocks(monkeypatch):
    """`run(state, images)` -> {layer: inserted prompt block}.

    Wraps `encoder.insert_prompts` (the forward calls it through the module
    global) and reads positions [1, 1+m) of each sequence it returns: the
    effective prompt block fed into that layer, one row per image.
    """
    blocks = {}
    original = encoder.insert_prompts

    def recording(tokens, layer_index, stack):
        out = original(tokens, layer_index, stack)
        blocks[layer_index] = out.data[:, 1:1 + stack.length].copy()
        return out

    monkeypatch.setattr(encoder, "insert_prompts", recording)

    def run(state, images):
        blocks.clear()
        state.forward(images)
        return dict(blocks)

    return run

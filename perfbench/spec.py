"""What the benchmark measures: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module:

    python3 perfbench/spec.py

The per-workload layer notes and the layer-to-end-to-end mapping are in
``perfbench/README.md``.
"""

import json
import os

KERNELS = (
    "softmax_lastaxis",
    "softmax_lastaxis_grad",
    "layernorm_lastaxis",
    "layernorm_lastaxis_grad",
    "gelu",
    "gelu_grad",
)

# The diffcore op functions the workloads call (``exp`` and ``tensor_mean``
# have no caller in promptlab).
OPS = (
    "add", "sub", "mul", "scale", "matmul", "concat", "slice_axis", "reshape",
    "swapaxes", "broadcast_to", "softmax", "layernorm", "gelu", "l2_normalize",
    "log", "clamp_min", "tensor_sum", "logsumexp", "take_diagonal",
)

HEADS = ("cosine_logits", "cross_entropy", "reformation_loss", "kd_loss", "total_loss")

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 30

WORKLOADS = [
    ("b2n_train",
     "the paper's protocol: progressive 1..4, ref loss, 16-shot base-to-novel, eval every "
     "epoch; loads graph building, backward and the trainer's eval path"),
    ("fewshot_late",
     "deep prompts on blocks 3..4 only, kd loss, 2-shot: tiny arrays, so per-op dispatch and "
     "grad buffers dominate and half of each forward is an unprompted prefix"),
    ("eval_pool",
     "inference only: evaluate_task on 1680 images with a frozen and a deep 3..4 stack; big "
     "arrays make kernels and matmul dominate, no backward"),
]

# (name, unit, better, bound). Bounds are the share of the parent's median a
# metric may worsen by before a change is a regression.
# On a shared 2-core x86-64 VM every timing drifts with the load neighbouring
# VMs put on the host: ten-seed medians of the same code moved by up to 18%
# between two sets taken 20 minutes apart. Hence the largest bound allowed,
# 0.25, for every timing; memory does not drift.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_p90", "ms", "lower", 0.25),
    ("eval_images_per_s", "images/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Printed and stored with every untraced run, but not gated: train images
# do not exist on eval_pool, and error_rate is 0 at a correct commit (the
# result line's ``failed`` gates it).
REPORTED = [
    ("train_images_per_s", "images/s"),
    ("error_rate", "ratio"),
]


def _per_layer():
    out = []
    for k in KERNELS:
        out += [
            (f"kernels.{k}.calls", "count", "lower"),
            (f"kernels.{k}.ms", "ms", "lower"),
            (f"kernels.{k}.bytes", "bytes-computed", "lower"),
        ]
    out += [
        ("diffcore.nodes_per_step", "count", "lower"),
        ("diffcore.grad_bytes_per_step", "bytes-computed", "lower"),
        ("diffcore.grad_bytes_eval", "bytes-computed", "lower"),
        ("diffcore.grad_use_ratio", "ratio", "higher"),
        ("diffcore.backward_ms", "ms", "lower"),
    ]
    for op in OPS:
        out += [
            (f"diffcore.op.{op}.calls", "count", "lower"),
            (f"diffcore.op.{op}.ms", "ms", "lower"),
        ]
    out += [
        ("encoder.forward.calls", "count", "lower"),
        ("encoder.forward.train_ms", "ms", "lower"),
        ("encoder.forward.eval_ms", "ms", "lower"),
        ("encoder.embed_patches.ms", "ms", "lower"),
        ("encoder.insert_prompts.ms", "ms", "lower"),
        ("encoder.images", "count", "higher"),
        ("encoder.prefix_block_share", "ratio", "lower"),
        ("heads.cosine_logits.ms", "ms", "lower"),
        ("heads.loss.ms", "ms", "lower"),
        ("heads.clamp_events", "count", "lower"),
        ("trainer.forward_ms", "ms", "lower"),
        ("trainer.loss_ms", "ms", "lower"),
        ("trainer.backward_ms", "ms", "lower"),
        ("trainer.optimizer_ms", "ms", "lower"),
        ("trainer.eval_ms", "ms", "lower"),
        ("trainer.frozen_features_ms", "ms", "lower"),
        ("trainer.steps", "count", "higher"),
        ("data.generate_dataset.ms", "ms", "lower"),
        ("data.sample_k_shot.ms", "ms", "lower"),
        ("trainer.prototype_bank.ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    import bootstrap

    path = os.path.join(bootstrap.ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")

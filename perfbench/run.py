"""Run one workload of the promptlab benchmark and print its metrics.

    python3 perfbench/run.py --workload b2n_train --seed 0 --seconds 25 --trace 0

One process, closed loop: operations (see ``workloads.py``) run back to back
until the next one would overrun ``--seconds``; at least one always runs.
Every operation is checked: its output digest must equal the digest pinned
in ``digests.json`` for this seed, or, for a seed with no pin, the digest of
the run's first operation; the frozen backbone must not move; losses and
accuracies must be finite and in range. A raised ``PromptLabError`` fails
the operation.

``--trace 0`` reports the end-to-end metrics of ``spec.END_TO_END``, with
only the light :class:`instrument.Probe` hooks on. ``--trace 1`` runs one
untraced operation, then traced ones, and reports ``spec.PER_LAYER``: every
metric per operation (median over traced operations) plus
``trace.overhead_s``, traced minus untraced operation time.

The report goes to stdout, ending with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. The full result,
environment included, is also written to ``.perfbench_results/``.
"""

import bootstrap

bootstrap.prepare()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from instrument import Patcher, Probe, Tracer  # noqa: E402
from promptlab import heads, kernels  # noqa: E402
from promptlab.encoder import backbone_checksum  # noqa: E402
from promptlab.errors import PromptLabError  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(bootstrap.ROOT, ".perfbench_results")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
SETUP_SAMPLES = 5


def environment():
    """What a comparison of two runs must hold equal (git_sha excepted)."""
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "blas_threads": bootstrap.BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.active_backend(),
    }


def _git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(bootstrap.ROOT):
        return "unknown"
    return lines[1]


def pinned_digest(name, seed):
    if not os.path.exists(DIGESTS_PATH):
        return None
    with open(DIGESTS_PATH, encoding="ascii") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def measure_setup(name, seed):
    """Set-up seconds of SETUP_SAMPLES fresh processes, one after another."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def _operate(workload, inputs, probe, tracer, expected):
    """One checked operation; returns its record."""
    probe.features = hashlib.sha256()
    checksum = backbone_checksum(inputs.states[0])
    clamps = heads.clamp_counter.count
    spans = len(tracer.starts) if tracer else 0
    events = len(tracer.events) if tracer else 0
    operate = tracer.span("op", workload.operate) if tracer else workload.operate
    eval_images, eval_s = probe.eval_images, probe.eval_s
    started = time.perf_counter()
    try:
        outcome = operate(inputs)
    except PromptLabError as exc:
        outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - started
    op = {"seconds": seconds, "traced": tracer is not None, "digest": None}
    op["eval_images"], op["eval_s"] = probe.eval_images - eval_images, probe.eval_s - eval_s
    if outcome is not None:
        op["digest"] = workload.digest(outcome, probe.features.hexdigest())
        problems = workload.problems(outcome)
        if backbone_checksum(inputs.states[0]) != checksum:
            problems.append("the frozen backbone changed")
        if expected is not None and op["digest"] != expected:
            problems.append(f"digest {op['digest']} differs from the expected {expected}")
    op["problems"] = problems
    op["clamps"] = heads.clamp_counter.count - clamps
    if tracer:
        op["spans"] = (spans, len(tracer.starts))
        op["events"] = (events, len(tracer.events))
    return op


def run_workload(name, seed, seconds, trace, expected=None):
    """Set up, warm up and run one workload; returns the result dict.

    `expected` overrides the pinned digest (the self-test passes a wrong one).
    """
    workload = workloads.WORKLOADS[name]
    if expected is None:
        expected = pinned_digest(name, seed)
    setup_times = [] if trace else measure_setup(name, seed)
    tracer = Tracer() if trace else None
    patcher = Patcher()
    if tracer:
        tracer.install(patcher)
    try:
        inputs = workload.setup(seed)
    finally:
        patcher.restore()
    setup_spans = len(tracer.starts) if tracer else 0
    workload.warm_up(inputs)

    probe = Probe()
    ops = []
    probe.install(patcher)
    started = time.perf_counter()
    try:
        while True:
            traced = trace and len(ops) > 0
            if traced and not ops[-1]["traced"]:
                tracer.install(patcher)
            ops.append(_operate(workload, inputs, probe, tracer if traced else None, expected))
            if expected is None and ops[-1]["digest"] is not None:
                expected = ops[-1]["digest"]
            elapsed = time.perf_counter() - started
            longest = max(op["seconds"] for op in ops)
            if (traced or not trace) and elapsed + longest > seconds:
                break
    finally:
        patcher.restore()

    failed = sum(1 for op in ops if op["problems"])
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(),
        "attempted": len(ops),
        "failed": failed,
        "digests": [op["digest"] for op in ops],
        "problems": [p for op in ops for p in op["problems"]],
    }
    if trace:
        result["metrics"], result["spans"] = _per_layer(workload, tracer, setup_spans, ops)
        result["tracer"] = tracer
    else:
        result["metrics"], result["reported"] = _end_to_end(workload, setup_times, ops, probe)
    return result


def _with_units(values, declared):
    units = {entry[0]: entry[1] for entry in declared}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(workload, setup_times, ops, probe):
    steps = probe.step_ms if workload.kind == "train" else probe.chunk_ms
    eval_rates = [op["eval_images"] / op["eval_s"] for op in ops if op["eval_s"]]
    values = {
        "setup_s": _median(setup_times),
        "run_s": _median([op["seconds"] for op in ops]),
        "step_ms_p50": _median(steps),
        "step_ms_p90": float(np.percentile(steps, 90)) if steps else 0.0,
        "eval_images_per_s": _median(eval_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    step_s = sum(probe.step_ms) / 1e3
    reported = {
        "train_images_per_s": probe.train_images / step_s if step_s else 0.0,
        "error_rate": sum(1 for op in ops if op["problems"]) / len(ops),
    }
    samples = {
        "setup_s": len(setup_times),
        "run_s": len(ops),
        "step_ms_p50": len(steps),
        "step_ms_p90": len(steps),
        "eval_images_per_s": len(eval_rates),
        "peak_rss_mb": 1,
    }
    metrics = _with_units(values, spec.END_TO_END)
    for name, count in samples.items():
        metrics[name]["samples"] = count
    return metrics, _with_units(reported, spec.REPORTED)


EVAL, FEATURES = 1, 2
EVAL_SPANS = ("trainer.evaluate_task", "trainer.split_accuracy")
HEAD_SPANS = tuple(f"heads.{h}" for h in spec.HEADS)
LOSS_SPANS = HEAD_SPANS[1:]


def _per_layer(workload, tracer, setup_spans, ops):
    traced = [op for op in ops if op["traced"] and not op["problems"]]
    per_op = [layer_metrics(tracer, op, workload.kind) for op in traced]
    if per_op:
        values = {name: _median([m[name] for m in per_op]) for name in per_op[0]}
    else:
        values = dict.fromkeys((entry[0] for entry in spec.PER_LAYER), 0.0)
    setup = span_table(tracer, 0, setup_spans)
    for name in ("data.generate_dataset", "data.sample_k_shot", "trainer.prototype_bank"):
        values[f"{name}.ms"] = setup.get(name, {}).get("incl_ms", 0.0)
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    values["trace.overhead_s"] = _median([op["seconds"] for op in traced]) - _median(untraced)
    spans = span_table(tracer, *traced[0]["spans"]) if traced else {}
    return _with_units(values, spec.PER_LAYER), spans


def span_table(tracer, lo, hi):
    """Calls, inclusive and self milliseconds per span name in [lo, hi)."""
    table = defaultdict(lambda: {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0})
    child = defaultdict(float)
    for i in range(lo, hi):
        child[tracer.parents[i]] += tracer.ends[i] - tracer.starts[i]
    for i in range(lo, hi):
        dur = tracer.ends[i] - tracer.starts[i]
        row = table[tracer.names[i]]
        row["calls"] += 1
        row["incl_ms"] += dur * 1e3
        row["self_ms"] += (dur - child[i]) * 1e3
    return dict(table)


def layer_metrics(tracer, op, kind):
    """Per-layer metrics of one traced operation."""
    lo, hi = op["spans"]
    names = tracer.names
    dur = {}
    own = {}
    ctx = {}
    for i in range(lo, hi):
        dur[i] = own[i] = (tracer.ends[i] - tracer.starts[i]) * 1e3
        p = tracer.parents[i]
        flags = ctx.get(p, 0)
        if p in own:
            own[p] -= dur[i]
        if names[i] in EVAL_SPANS:
            flags |= EVAL
        elif names[i] == "trainer.forward_features":
            flags |= FEATURES
        ctx[i] = flags

    calls = defaultdict(int)
    own_ms = defaultdict(float)
    incl_ms = defaultdict(float)
    step_incl = defaultdict(float)
    step_own = defaultdict(float)
    eval_own = defaultdict(float)
    eval_ms = frozen_ms = 0.0
    chunks = 0
    for i in range(lo, hi):
        name = names[i]
        calls[name] += 1
        own_ms[name] += own[i]
        incl_ms[name] += dur[i]
        if ctx[i] == 0:
            step_incl[name] += dur[i]
            step_own[name] += own[i]
        elif ctx[i] & EVAL:
            eval_own[name] += own[i]
            chunks += name == "encoder.forward"
        if name in EVAL_SPANS and not ctx.get(tracer.parents[i], 0) & EVAL:
            eval_ms += dur[i]
        if name == "trainer.forward_features" and not ctx[i] & EVAL:
            frozen_ms += dur[i]

    # A "step" is an optimizer step on the training workloads and one eval
    # chunk forward on eval_pool, as in the end-to-end step_ms metrics.
    steps = calls["trainer.sgd_step"]
    units = steps if kind == "train" else chunks
    counted = defaultdict(float)
    kernel_bytes = defaultdict(float)
    for index, what, amount in tracer.events[op["events"][0]:op["events"][1]]:
        flags = ctx.get(index, 0)
        if what == "grad":
            counted["allocated"] += 1
            if (kind == "train" and flags == 0) or (kind != "train" and flags & EVAL):
                counted["step_nodes"] += 1
                counted["step_bytes"] += amount
            if flags & EVAL:
                counted["eval_bytes"] += amount
        elif what == "bytes":
            kernel_bytes[names[index]] += amount
        else:
            counted[what] += amount

    m = {}
    for k in spec.KERNELS:
        m[f"kernels.{k}.calls"] = calls[f"kernels.{k}"]
        m[f"kernels.{k}.ms"] = own_ms[f"kernels.{k}"]
        m[f"kernels.{k}.bytes"] = kernel_bytes[f"kernels.{k}"]
    m["diffcore.nodes_per_step"] = counted["step_nodes"] / units if units else 0.0
    m["diffcore.grad_bytes_per_step"] = counted["step_bytes"] / units if units else 0.0
    m["diffcore.grad_bytes_eval"] = counted["eval_bytes"]
    allocated = counted["allocated"]
    m["diffcore.grad_use_ratio"] = counted["reached"] / allocated if allocated else 0.0
    m["diffcore.backward_ms"] = own_ms["diffcore.backward"]
    for name in spec.OPS:
        m[f"diffcore.op.{name}.calls"] = calls[f"diffcore.{name}"]
        m[f"diffcore.op.{name}.ms"] = own_ms[f"diffcore.{name}"]
    m["encoder.forward.calls"] = calls["encoder.forward"]
    m["encoder.forward.train_ms"] = step_own["encoder.forward"]
    m["encoder.forward.eval_ms"] = eval_own["encoder.forward"]
    m["encoder.embed_patches.ms"] = own_ms["encoder.embed_patches"]
    m["encoder.insert_prompts.ms"] = own_ms["encoder.insert_prompts"]
    m["encoder.images"] = counted["images"]
    blocks = counted["blocks"]
    m["encoder.prefix_block_share"] = counted["prefix"] / blocks if blocks else 0.0
    m["heads.cosine_logits.ms"] = incl_ms["heads.cosine_logits"]
    m["heads.loss.ms"] = sum(incl_ms[n] for n in LOSS_SPANS)
    m["heads.clamp_events"] = op["clamps"]
    m["trainer.forward_ms"] = step_incl["encoder.forward"]
    m["trainer.loss_ms"] = sum(step_incl[n] for n in HEAD_SPANS)
    m["trainer.backward_ms"] = incl_ms["diffcore.backward"]
    m["trainer.optimizer_ms"] = incl_ms["trainer.sgd_step"] + incl_ms["trainer.zero_grad"]
    m["trainer.eval_ms"] = eval_ms
    m["trainer.frozen_features_ms"] = frozen_ms
    m["trainer.steps"] = steps
    return m


def result_line(result):
    """The last stdout line the benchmark contract asks for."""
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _report(result):
    head = (f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
            f"operations {result['attempted']}  failed {result['failed']}")
    lines = [head, "environment " + json.dumps(result["environment"], sort_keys=True)]
    lines += [f"problem: {p}" for p in result["problems"]]
    lines.append(f"digest {result['digests'][0]}")
    rows = dict(result["metrics"])
    rows.update(result.get("reported", {}))
    for name, entry in rows.items():
        note = f"  (n={entry['samples']})" if "samples" in entry else ""
        lines.append(f"{name:<34} {entry['value']:>16.6g} {entry['unit']}{note}")
    return "\n".join(lines)


def _save(result):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stored = {k: v for k, v in result.items() if k != "tracer"}
    path = os.path.join(
        RESULTS_DIR,
        f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{time.time_ns()}.json",
    )
    with open(path, "w", encoding="ascii") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_report(result))
    print(f"saved {_save(result)}")
    print(result_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

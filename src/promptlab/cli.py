"""Command-line entry points.

Subcommands: train, eval, grid, grad-check, export-embeddings, make-data,
params. All randomness is governed by explicit seeds, so repeating an
invocation with the same arguments produces byte-identical output files.
Training options are layered by :func:`promptlab.trainer.load_config`, with
command-line flags as its overrides.
"""

import argparse
import sys

import numpy as np

from . import diffcore as dc
from .checkpoint import load_tensors, save_tensors
from .data import SyntheticTaskSpec, generate_dataset, sample_k_shot, save_dataset
from .diffcore import Tensor, finite_difference_check
from .encoder import EncoderConfig, EncoderState, PromptStack, count_trainable_params
from .errors import ConfigError, PromptLabError
from .evaluate import EvalReport, aggregate_seeds, emit_table, export_embeddings
from .heads import (
    LOSS_MODES,
    ClassEmbeddingBank,
    LossConfig,
    cosine_logits,
    cross_entropy,
    kd_loss,
    reformation_loss,
    total_loss,
)
from .trainer import (
    TrainConfig,
    _forward_features,
    evaluate_task,
    load_config,
    parse_depth_range,
    prototype_bank,
    run_grid,
    save_records,
    train,
)

# argparse dest -> config-file key, for flags that mirror the file schema.
_FLAG_KEYS = (
    ("strategy", "strategy"),
    ("m", "m"),
    ("alpha", "alpha"),
    ("lam", "lambda"),
    ("beta", "beta"),
    ("loss_mode", "loss_mode"),
    ("lr", "lr"),
    ("wd", "wd"),
    ("momentum", "momentum"),
    ("schedule", "schedule"),
    ("batch_size", "batch_size"),
    ("epochs", "epochs"),
    ("shots", "shots"),
    ("mode", "mode"),
    ("seeds", "seeds"),
    ("depth_range", "depth_range"),
)


def _add_config_flags(parser):
    parser.add_argument("--config", help="key = value config file, or the word 'default'")
    parser.add_argument("--strategy", choices=("none", "shallow", "deep", "progressive"))
    parser.add_argument("--m", type=int, help="prompt tokens per layer")
    parser.add_argument("--alpha", type=float, help="progressive mixing weight")
    parser.add_argument("--lambda", dest="lam", type=float, help="re-formation loss weight")
    parser.add_argument("--beta", type=float, help="distillation loss weight")
    parser.add_argument("--loss-mode", choices=LOSS_MODES)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--wd", type=float)
    parser.add_argument("--momentum", type=float)
    parser.add_argument("--schedule", choices=("constant", "cosine"))
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--shots", type=int)
    parser.add_argument("--mode", choices=("few_shot", "base_to_novel"))
    parser.add_argument("--seeds", help="comma-separated run seeds")
    parser.add_argument("--depth-range", help="prompted layers, 1-based inclusive, e.g. 1..4")


def _add_world_flags(parser):
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--patch-count", type=int, default=16)
    parser.add_argument("--patch-dim", type=int, default=12)
    parser.add_argument("--samples-per-class", type=int, default=40)
    parser.add_argument("--noise-std", type=float, default=0.3)
    parser.add_argument("--shift", type=float, default=0.0, help="novel prototype displacement")
    parser.add_argument("--prototype-seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=4, help="encoder blocks")
    parser.add_argument("--width", type=int, default=32)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--output-dim", type=int, default=16)
    parser.add_argument("--encoder-seed", type=int, default=0)
    parser.add_argument("--bank", choices=("prototype", "random"), default="prototype")
    parser.add_argument("--temperature", type=float, default=0.1)
    parser.add_argument("--bank-seed", type=int, default=0)
    parser.add_argument("--max-cosine", type=float, default=0.5)


def _build_train_config(args) -> TrainConfig:
    return load_config(
        args.config if args.config not in (None, "default") else None,
        overrides={key: getattr(args, dest) for dest, key in _FLAG_KEYS
                   if getattr(args, dest, None) is not None},
    )


def _task_spec(args) -> SyntheticTaskSpec:
    return SyntheticTaskSpec(
        class_count=args.classes,
        patch_count=args.patch_count,
        patch_dim=args.patch_dim,
        noise_std=args.noise_std,
        shift_magnitude=args.shift,
        samples_per_class=args.samples_per_class,
        prototype_seed=args.prototype_seed,
    )


def _encoder(args) -> EncoderState:
    return EncoderState.create(
        EncoderConfig(
            depth=args.depth,
            width=args.width,
            heads=args.heads,
            patch_count=args.patch_count,
            patch_dim=args.patch_dim,
            output_dim=args.output_dim,
            seed=args.encoder_seed,
        )
    )


def _bank_factory(args):
    if args.bank == "prototype":
        return lambda enc, store: prototype_bank(enc, store, temperature=args.temperature)
    return lambda enc, store: ClassEmbeddingBank.generate(
        store.spec.class_count,
        enc.config.output_dim,
        seed=args.bank_seed,
        temperature=args.temperature,
        max_cosine=args.max_cosine,
    )


def _print_metrics(prefix, metrics):
    parts = [f"{name}={metrics[name]:.2f}" for name in sorted(metrics)]
    print(prefix + " ".join(parts))


def _maybe_report(records):
    try:
        return EvalReport.from_records(records)
    except PromptLabError:
        return None


def cmd_train(args) -> int:
    config = _build_train_config(args)
    encoder = _encoder(args)
    spec = _task_spec(args)
    factory = _bank_factory(args)
    seeds = (args.seed,) if args.seed is not None else config.seeds
    print(f"training {config.strategy} m={config.prompt_length} "
          f"shots={config.shots} mode={config.mode} epochs={config.epochs()}")
    records = []
    for seed in seeds:
        store = generate_dataset(spec, seed)
        bank = factory(encoder, store)
        task = sample_k_shot(store, config.shots, seed, mode=config.mode)
        record = train(task, encoder, bank, config, seed)
        records.append(record)
        _print_metrics(f"seed {seed}: ", record.eval_metrics)
    summary = aggregate_seeds(records)
    for name in sorted(summary["metrics"]):
        print(f"{name}: {summary['metrics'][name]}")
    if args.records:
        save_records(args.records, records)
        print(f"records: {args.records}")
    if args.checkpoint:
        save_tensors(args.checkpoint, records[0].prompt_state)
        print(f"checkpoint: {args.checkpoint} (seed {records[0].seed})")
    if args.table:
        report = _maybe_report(records)
        if report is None:
            print("table skipped: records lack base/novel metrics", file=sys.stderr)
        else:
            emit_table([report], format=args.format, path=args.table)
            print(f"table: {args.table}")
    return 0


def _checkpointed_setup(args):
    """(config, encoder, seed, dataset, prompt stack) for eval-style commands.

    The stack is seeded like the one `train` would build for `seed`, then
    overwritten from --checkpoint when one is given.
    """
    config = _build_train_config(args)
    encoder = _encoder(args)
    seed = args.seed if args.seed is not None else config.seeds[0]
    store = generate_dataset(_task_spec(args), seed)
    stack = config.prompt_stack(encoder.config.width, seed)
    if args.checkpoint:
        stack.load_state_dict(load_tensors(args.checkpoint))
    return config, encoder, seed, store, stack


def cmd_eval(args) -> int:
    config, encoder, seed, store, stack = _checkpointed_setup(args)
    bank = _bank_factory(args)(encoder, store)
    task = sample_k_shot(store, config.shots, seed, mode=config.mode)
    state = EncoderState(encoder.config, encoder.weights, stack)
    metrics = evaluate_task(state, bank, task)
    _print_metrics(f"seed {seed}: ", metrics)
    if args.table:
        if not {"base_accuracy", "novel_accuracy", "harmonic_mean"} <= set(metrics):
            print("table skipped: no base/novel split metrics", file=sys.stderr)
        else:
            report = EvalReport(
                coordinates=config.coordinates(),
                base_accuracy=metrics["base_accuracy"],
                novel_accuracy=metrics["novel_accuracy"],
                harmonic_mean=metrics["harmonic_mean"],
                per_seed={name: (metrics[name],) for name in
                          ("base_accuracy", "novel_accuracy", "harmonic_mean")},
                seeds=(seed,),
                trainable_param_count=count_trainable_params(state),
            )
            emit_table([report], format=args.format, path=args.table)
            print(f"table: {args.table}")
    return 0


def _parse_axis(text: str):
    if "=" not in text:
        raise ConfigError(f"axis must look like name=v1,v2,... got {text!r}")
    name, _, values = text.partition("=")
    name = name.strip()
    items = [v.strip() for v in values.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"axis {name!r} has no values")
    if name in ("alpha", "lambda"):
        return name, [float(v) for v in items]
    if name == "shots":
        return name, [int(v) for v in items]
    return name, items


def cmd_grid(args) -> int:
    config = _build_train_config(args)
    encoder = _encoder(args)
    spec = _task_spec(args)
    axes = dict(_parse_axis(text) for text in args.axis or [])
    cells = run_grid(axes, config, encoder, spec, bank_factory=_bank_factory(args))
    reports = []
    all_records = []
    failed_runs = 0
    for cell in cells:
        for failure in cell["failures"]:
            failed_runs += 1
            print(f"failed: {cell['coordinates']} seed {failure['seed']}: "
                  f"{failure['error']}", file=sys.stderr)
        all_records.extend(cell["records"])
        if cell["records"]:
            report = _maybe_report(cell["records"])
            if report is not None:
                reports.append(report)
            summary = aggregate_seeds(cell["records"])
            line = " ".join(f"{k}={v}" for k, v in sorted(cell["coordinates"].items())
                            if v is not None)
            metric = summary["metrics"].get("harmonic_mean") or summary["metrics"].get("test_accuracy")
            print(f"{line}: {metric if metric is not None else 'no metric'}")
    if args.records:
        save_records(args.records, all_records)
        print(f"records: {args.records}")
    if args.table and reports:
        emit_table(reports, format=args.format, path=args.table)
        print(f"table: {args.table}")
    if not all_records:
        print("error: every grid run failed", file=sys.stderr)
        return 1
    print(f"grid: {len(cells)} cells, {len(all_records)} runs, {failed_runs} failed")
    return 0


def run_grad_check(loss_mode: str, step: float = 1e-5, tolerance: float = 1e-4, seed: int = 0):
    """Finite-difference check of d(total loss)/d(prompts), all layers at once.

    Uses a 2-layer width-16 encoder, a 3-image batch, and progressive
    prompts on both layers, so the checked path covers patch embedding,
    attention, the progressive recurrence, and the chosen loss mode.
    """
    cfg = EncoderConfig(depth=2, width=16, heads=2, patch_count=4, patch_dim=6,
                        output_dim=8, seed=seed + 11)
    stack = PromptStack.create("progressive", 2, cfg.width, active_layers=(0, 1),
                               alpha=0.1, seed=seed + 13)
    state = EncoderState.create(cfg, stack)
    bank = ClassEmbeddingBank.generate(3, cfg.output_dim, seed=seed + 17, temperature=0.2)
    rng = np.random.default_rng(seed + 19)
    images = rng.normal(size=(3, cfg.patch_count, cfg.patch_dim))
    labels = np.array([0, 1, 2])
    loss_config = LossConfig(mode=loss_mode, ref_weight=1.0, kd_weight=1.0)
    frozen = state.forward(images, stack=PromptStack.none())[0].data
    length = stack.length

    def f(x):
        stack.prompts[0] = dc.reshape(dc.slice_axis(x, 0, 0, length), (length, cfg.width))
        stack.prompts[1] = dc.reshape(dc.slice_axis(x, 0, length, 2 * length), (length, cfg.width))
        feats, _ = state.forward(images)
        probs = cosine_logits(feats, bank)
        ce = cross_entropy(probs, labels)
        ref = kd = None
        if loss_mode == "ref":
            ref = reformation_loss(feats, Tensor(frozen))
        elif loss_mode == "kd":
            kd = kd_loss(probs, cosine_logits(Tensor(frozen), bank))
        return total_loss(ce, ref, kd, loss_config)

    x0 = np.concatenate([stack.prompts[0].data, stack.prompts[1].data], axis=0)
    return finite_difference_check(f, x0, step=step, tolerance=tolerance)


def cmd_grad_check(args) -> int:
    modes = LOSS_MODES if args.loss_mode == "all" else (args.loss_mode,)
    ok = True
    for mode in modes:
        report = run_grad_check(mode, step=args.step, tolerance=args.tolerance, seed=args.seed or 0)
        status = "PASS" if report.passed else "FAIL"
        print(f"{mode}: max relative error {report.max_rel_error:.3e} {status}")
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_export_embeddings(args) -> int:
    _, encoder, _, store, stack = _checkpointed_setup(args)
    images = store.samples[:args.limit]
    features = {
        "frozen": _forward_features(encoder, images, stack=PromptStack.none()),
        "prompted": _forward_features(encoder, images, stack=stack),
    }
    count = export_embeddings(features, store.labels[:args.limit], args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def cmd_make_data(args) -> int:
    spec = _task_spec(args)
    store = generate_dataset(spec, args.seed or 0)
    save_dataset(args.out, store)
    print(f"wrote {len(store.samples)} samples "
          f"({spec.class_count} classes, seed {args.seed or 0}) to {args.out}")
    return 0


def cmd_params(args) -> int:
    config = TrainConfig(strategy=args.strategy, prompt_length=args.m,
                         depth_range=parse_depth_range(args.layers))
    stack = config.prompt_stack(args.d, seed=0)
    print(sum(tensor.data.size for _, tensor in stack.parameters()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="promptlab",
                                     description="Prompt tuning on a frozen encoder, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train prompts, print and save metrics")
    _add_config_flags(p_train)
    _add_world_flags(p_train)
    p_train.add_argument("--seed", type=int, help="train only this seed")
    p_train.add_argument("--records", help="write line-delimited run records here")
    p_train.add_argument("--checkpoint", help="write first seed's prompts here")
    p_train.add_argument("--table", help="write an aggregated results table here")
    p_train.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate prompts (fresh or from a checkpoint)")
    _add_config_flags(p_eval)
    _add_world_flags(p_eval)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--checkpoint", help="prompt tensors saved by train")
    p_eval.add_argument("--table", help="write a one-row results table here")
    p_eval.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="train a Cartesian grid of configurations")
    _add_config_flags(p_grid)
    _add_world_flags(p_grid)
    p_grid.add_argument("--axis", action="append",
                        help="axis values, e.g. --axis alpha=0.01,0.1,0.3 (repeatable)")
    p_grid.add_argument("--records", help="write all run records here")
    p_grid.add_argument("--table", help="write per-cell aggregated table here")
    p_grid.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_grid.set_defaults(func=cmd_grid)

    p_check = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p_check.add_argument("--config", help="accepted for symmetry; 'default' uses built-ins")
    p_check.add_argument("--loss-mode", choices=LOSS_MODES + ("all",), default="all")
    p_check.add_argument("--step", type=float, default=1e-5)
    p_check.add_argument("--tolerance", type=float, default=1e-4)
    p_check.add_argument("--seed", type=int)
    p_check.set_defaults(func=cmd_grad_check)

    p_export = sub.add_parser("export-embeddings",
                              help="dump frozen and prompted features as TSV")
    _add_config_flags(p_export)
    _add_world_flags(p_export)
    p_export.add_argument("--seed", type=int)
    p_export.add_argument("--checkpoint", help="prompt tensors saved by train")
    p_export.add_argument("--limit", type=int, default=100, help="max samples to export")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export_embeddings)

    p_data = sub.add_parser("make-data", help="generate and save a synthetic dataset")
    _add_world_flags(p_data)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--out", required=True)
    p_data.set_defaults(func=cmd_make_data)

    p_params = sub.add_parser("params", help="trainable parameter count for a prompt shape")
    p_params.add_argument("--strategy", default="progressive",
                          choices=("none", "shallow", "deep", "progressive"))
    p_params.add_argument("--m", type=int, required=True)
    p_params.add_argument("--layers", required=True, help="1-based inclusive range, e.g. 1..12")
    p_params.add_argument("--d", type=int, required=True)
    p_params.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PromptLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

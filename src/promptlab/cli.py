"""Command-line entry points.

Subcommands: train, eval, grid, grad-check, export-embeddings, make-data,
params. All randomness is governed by explicit seeds, so repeating an
invocation with the same arguments produces byte-identical output files.
Training options are layered by :func:`promptlab.trainer.load_config`, with
command-line flags as its overrides: each config key has one text flag, and
the key's own parser is the only one that reads it. The world flags are the
fields of ``SyntheticTaskSpec`` and ``EncoderConfig`` (the shared patch fields
once), each with its field's name, type and default, except that
``--classes``, ``--shift`` and ``--encoder-seed`` rename ``class_count``,
``shift_magnitude`` and the encoder's ``seed``.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import diffcore as dc
from .checkpoint import load_tensors, save_tensors
from .data import SyntheticTaskSpec, generate_dataset, sample_k_shot, save_dataset
from .diffcore import finite_difference_check
from .encoder import EncoderConfig, EncoderState, PromptStack, count_trainable_params
from .errors import ConfigError, PromptLabError
from .evaluate import TABLE_FORMATS, EvalReport, aggregate_seeds, emit_table, export_embeddings
from .heads import LOSS_MODES, ClassEmbeddingBank, step_loss
from .trainer import (
    TrainConfig,
    _CONFIG_KEYS,
    _forward_features,
    evaluate_task,
    load_config,
    prototype_bank,
    run_grid,
    save_records,
    train,
)


def _add_config_flags(parser):
    parser.add_argument("--config", help="key = value config file, or the word 'default'")
    for key in _CONFIG_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=f"config key {key}, parsed like its file value")


# World flags whose names differ from their field's; every other world field
# `name` is the flag --name (underscores as dashes).
_WORLD_FLAGS = {"class_count": "classes", "shift_magnitude": "shift", "seed": "encoder_seed"}
_WORLD_HELP = {"shift_magnitude": "novel prototype displacement", "depth": "encoder blocks"}


def _add_world_flags(parser):
    fields = {}  # each field once; the shared patch fields come from the spec
    for cls in (SyntheticTaskSpec, EncoderConfig):
        for field in dataclasses.fields(cls):
            fields.setdefault(field.name, field)
    for field in fields.values():
        flag = _WORLD_FLAGS.get(field.name, field.name)
        parser.add_argument("--" + flag.replace("_", "-"), type=field.type, default=field.default,
                            help=_WORLD_HELP.get(field.name))
    parser.add_argument("--bank", choices=("prototype", "random"), default="prototype")
    parser.add_argument("--temperature", type=float, default=0.1)
    parser.add_argument("--bank-seed", type=int, default=0)
    parser.add_argument("--max-cosine", type=float, default=0.5)


def _build_train_config(args) -> TrainConfig:
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS
                 if getattr(args, key) is not None}
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = args.seed  # --seed wins over --seeds
    return load_config(args.config if args.config not in (None, "default") else None,
                       overrides=overrides)


def _world(cls, args):
    """The world dataclass `cls` built from the flags of its fields."""
    return cls(**{field.name: getattr(args, _WORLD_FLAGS.get(field.name, field.name))
                  for field in dataclasses.fields(cls)})


def _task_spec(args) -> SyntheticTaskSpec:
    return _world(SyntheticTaskSpec, args)


def _encoder(args) -> EncoderState:
    return EncoderState.create(_world(EncoderConfig, args))


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


def _write_table(args, record_groups):
    """Write one aggregated row per group of serialized records to --table, if given.

    Groups without base/novel split metrics have no row.
    """
    if not args.table:
        return
    reports = []
    for records in record_groups:
        try:
            reports.append(EvalReport.from_records(records))
        except PromptLabError:
            pass
    if not reports:
        print("table skipped: records lack base/novel metrics", file=sys.stderr)
        return
    emit_table(reports, format=args.format, path=args.table)
    print(f"table: {args.table}")


def cmd_train(args) -> int:
    config = _build_train_config(args)
    encoder = _encoder(args)
    spec = _task_spec(args)
    factory = _bank_factory(args)
    print(f"training {config.strategy} m={config.prompt_length} "
          f"shots={config.shots} mode={config.mode} epochs={config.epochs()}")
    records = []
    for seed in config.seeds:
        store = generate_dataset(spec, seed)
        bank = factory(encoder, store)
        task = sample_k_shot(store, config.shots, seed, mode=config.mode)
        record = train(task, encoder, bank, config, seed)
        records.append(record)
        _print_metrics(f"seed {seed}: ", record.eval_metrics)
    serialized = [record.to_json_dict() for record in records]
    summary = aggregate_seeds(serialized)
    for name in sorted(summary["metrics"]):
        print(f"{name}: {summary['metrics'][name]}")
    if args.records:
        save_records(args.records, records)
        print(f"records: {args.records}")
    if args.checkpoint:
        save_tensors(args.checkpoint, records[0].prompt_state)
        print(f"checkpoint: {args.checkpoint} (seed {records[0].seed})")
    _write_table(args, [serialized])
    return 0


def _checkpointed_setup(args):
    """(config, prompted encoder state, seed, dataset) for eval-style commands.

    The state's stack is built from --checkpoint when one is given, and
    otherwise seeded like the one `train` would build for `seed`.
    """
    config = _build_train_config(args)
    encoder = _encoder(args)
    seed = config.seeds[0]
    stack = (PromptStack.from_state_dict(config.strategy, config.prompt_length, config.active_layers(),
                                         config.alpha, load_tensors(args.checkpoint))
             if args.checkpoint else config.prompt_stack(encoder.config.width, seed))
    state = EncoderState(encoder.config, encoder.weights, stack)
    return config, state, seed, generate_dataset(_task_spec(args), seed)


def cmd_eval(args) -> int:
    config, state, seed, store = _checkpointed_setup(args)
    bank = _bank_factory(args)(state, store)
    task = sample_k_shot(store, config.shots, seed, mode=config.mode)
    metrics = evaluate_task(state, bank, task)
    _print_metrics(f"seed {seed}: ", metrics)
    _write_table(args, [[{
        "seed": seed,
        "coordinates": config.coordinates(),
        "eval_metrics": metrics,
        "trainable_params": count_trainable_params(state),
    }]])
    return 0


def _parse_axis(text: str):
    if "=" not in text:
        raise ConfigError(f"axis must look like name=v1,v2,... got {text!r}")
    name, _, values = text.partition("=")
    name = name.strip()
    items = [v.strip() for v in values.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"axis {name!r} has no values")
    return name, items


def cmd_grid(args) -> int:
    config = _build_train_config(args)
    encoder = _encoder(args)
    spec = _task_spec(args)
    axes = {}
    for name, values in map(_parse_axis, args.axis or []):
        if name in axes:
            raise ConfigError(f"axis {name!r} is given more than once")
        axes[name] = values
    cells = run_grid(axes, config, encoder, spec, bank_factory=_bank_factory(args))
    groups = []
    all_records = []
    failed_runs = 0
    for cell in cells:
        for failure in cell["failures"]:
            failed_runs += 1
            print(f"failed: {cell['coordinates']} seed {failure['seed']}: "
                  f"{failure['error']}", file=sys.stderr)
        all_records.extend(cell["records"])
        if cell["records"]:
            serialized = [record.to_json_dict() for record in cell["records"]]
            groups.append(serialized)
            summary = aggregate_seeds(serialized)
            line = " ".join(f"{k}={v}" for k, v in sorted(cell["coordinates"].items())
                            if v is not None)
            metric = summary["metrics"].get("harmonic_mean") or summary["metrics"].get("test_accuracy")
            print(f"{line}: {metric if metric is not None else 'no metric'}")
    if args.records:
        save_records(args.records, all_records)
        print(f"records: {args.records}")
    _write_table(args, groups)
    if not all_records:
        print("error: every grid run failed", file=sys.stderr)
        return 1
    print(f"grid: {len(cells)} cells, {len(all_records)} runs, {failed_runs} failed")
    return 0


def run_grad_check(loss_mode: str, step: float = 1e-5, tolerance: float = 1e-4, seed: int = 0,
                   strategy: str = "progressive", depth_range=(1, 2)):
    """Finite-difference check of the training loss's gradient in all prompts at once.

    Differentiates `heads.step_loss`, the loss `train` minimizes, on a
    width-16 encoder of depth `depth_range[1]` with a 3-image batch and
    m=2 prompts of `strategy` on blocks `depth_range` (1-based,
    inclusive). The default, progressive prompts on both blocks of a
    2-block encoder, covers patch embedding, attention, the progressive
    recurrence and the chosen loss mode.
    """
    config = load_config(env={}, overrides={
        "strategy": strategy, "m": 2, "loss_mode": loss_mode,
        "depth_range": f"{depth_range[0]}..{depth_range[1]}",
    })
    cfg = EncoderConfig(depth=depth_range[1], width=16, heads=2, patch_count=4, patch_dim=6,
                        output_dim=8, seed=seed + 11)
    stack = config.prompt_stack(cfg.width, seed + 13)
    frozen_state = EncoderState.create(cfg)
    bank = ClassEmbeddingBank.generate(3, cfg.output_dim, seed=seed + 17, temperature=0.2,
                                       max_cosine=0.5)
    rng = np.random.default_rng(seed + 19)
    images = rng.normal(size=(3, cfg.patch_count, cfg.patch_dim))
    labels = np.array([0, 1, 2])
    frozen = _forward_features(frozen_state, images)
    layers, m = sorted(stack.prompts), stack.length

    def f(x):
        prompts = {i: dc.reshape(dc.slice_axis(x, 0, j * m, (j + 1) * m), (m, cfg.width))
                   for j, i in enumerate(layers)}
        probe = PromptStack(stack.strategy, m, stack.active_layers, stack.alpha, prompts)
        feats = EncoderState(cfg, frozen_state.weights, probe).forward(images)
        return step_loss(feats, frozen, bank, labels, config.loss)[0]

    x0 = np.concatenate([stack.prompts[i].data for i in layers])
    return finite_difference_check(f, x0, step=step, tolerance=tolerance)


def cmd_grad_check(args) -> int:
    modes = LOSS_MODES if args.loss_mode == "all" else (args.loss_mode,)
    ok = True
    for mode in modes:
        report = run_grad_check(mode, step=args.step, tolerance=args.tolerance, seed=args.seed)
        status = "PASS" if report.passed else "FAIL"
        print(f"{mode}: max relative error {report.max_rel_error:.3e} {status}")
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_export_embeddings(args) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be non-negative, got {args.limit}")
    _, state, _, store = _checkpointed_setup(args)
    images = store.samples[:args.limit]
    frozen = EncoderState(state.config, state.weights, PromptStack.none())
    features = {
        "frozen": _forward_features(frozen, images),
        "prompted": _forward_features(state, images),
    }
    count = export_embeddings(features, store.labels[:args.limit], args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def cmd_make_data(args) -> int:
    spec = _task_spec(args)
    store = generate_dataset(spec, args.seed)
    save_dataset(args.out, store)
    print(f"wrote {len(store.samples)} samples "
          f"({spec.class_count} classes, seed {args.seed}) to {args.out}")
    return 0


def cmd_params(args) -> int:
    config = load_config(env={}, overrides={"strategy": args.strategy, "m": args.m,
                                            "depth_range": args.layers})
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
    p_train.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate prompts (fresh or from a checkpoint)")
    _add_config_flags(p_eval)
    _add_world_flags(p_eval)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--checkpoint", help="prompt tensors saved by train")
    p_eval.add_argument("--table", help="write a one-row results table here")
    p_eval.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="train a Cartesian grid of configurations")
    _add_config_flags(p_grid)
    _add_world_flags(p_grid)
    p_grid.add_argument("--axis", action="append",
                        help="axis values, e.g. --axis alpha=0.01,0.1,0.3 (repeatable)")
    p_grid.add_argument("--records", help="write all run records here")
    p_grid.add_argument("--table", help="write per-cell aggregated table here")
    p_grid.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    p_grid.set_defaults(func=cmd_grid)

    p_check = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p_check.add_argument("--loss-mode", choices=LOSS_MODES + ("all",), default="all")
    p_check.add_argument("--step", type=float, default=1e-5)
    p_check.add_argument("--tolerance", type=float, default=1e-4)
    p_check.add_argument("--seed", type=int, default=0)
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
    p_params.add_argument("--strategy", default=TrainConfig.strategy)
    p_params.add_argument("--m", required=True)
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

"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime failure.  Diagnostics go to
stderr; results (e.g. eval accuracy) go to stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    SceneSpec,
    generate_dataset,
    load_manifest,
)
from .errors import CheckpointError, ConfigError, ShapeError, TrainingFailure
from .explain import (
    grad_cam,
    mask_report,
    robustness_sweep,
    sensitivity_sweep,
    write_csv,
)
from .netpbm import NetpbmError, read_image, write_pgm
from .train import TrainConfig, evaluate, train, write_train_record


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--lambda", dest="lam", type=float, default=0.1)
    common.add_argument("--lr", type=float, default=1e-3)
    common.add_argument("--noise-as-stddev", action="store_true")

    parser = _Parser(prog="scenemask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", parents=[common], help="generate the synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-classes", type=int, default=4)
    p.add_argument("--images-per-class", type=int, default=200)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--cue-size", type=int, default=6)
    p.add_argument("--clutter", type=int, default=5)
    p.add_argument("--occlusion-prob", type=float, default=0.3)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", parents=[common], help="train one model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", choices=["baseline", "masked"], default="masked")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--record-out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("robustness", parents=[common], help="noise robustness sweep")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--kind", choices=["gaussian", "salt_pepper"], required=True)
    p.add_argument("--levels", type=_levels, required=True, help="comma-separated noise levels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--noise-seeds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("sweep", parents=[common], help="lr x lambda sensitivity sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--lrs", type=_numbers, default="1e-4,1e-3")
    p.add_argument("--lambdas", type=_numbers, default="0,0.01,0.1,1.0")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("explain", parents=[common], help="write an attention heatmap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--class", dest="target_class", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("mask-report", parents=[common], help="dump mask statistics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mask_report)
    return parser


def _numbers(text: str) -> list:
    """argparse type: comma-separated finite numbers."""
    try:
        values = [float(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"numbers must be finite, got {text!r}")
    return values


def _levels(text: str) -> list:
    """argparse type: comma-separated noise levels; whole numbers stay integers."""
    return [int(v) if v.is_integer() else v for v in _numbers(text)]


def _cmd_gen_data(args) -> int:
    spec = SceneSpec(
        n_classes=args.n_classes,
        images_per_class=args.images_per_class,
        image_size=(args.image_size, args.image_size, 3),
        cue_size=args.cue_size,
        clutter_count=args.clutter,
        occlusion_prob=args.occlusion_prob,
        seed=args.seed,
    )
    manifest = generate_dataset(spec, args.out)
    print(f"wrote {len(manifest.rows)} images to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig(
        learning_rate=args.lr,
        lam=args.lam,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
        variant=args.variant,
    )
    manifest = load_manifest(args.manifest)
    params, record = train(config, manifest, os.path.dirname(os.path.abspath(args.manifest)))
    save_checkpoint(params, args.checkpoint_out)
    if args.record_out:
        write_train_record(record, args.record_out)
    print(
        f"stopped at epoch {record.stopping_epoch} (best {record.best_epoch}), "
        f"val_acc {record.val_acc[record.best_epoch - 1]:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    accuracy, _ = evaluate(params, manifest, args.split, os.path.dirname(os.path.abspath(args.manifest)))
    print(accuracy)
    return 0


def _cmd_robustness(args) -> int:
    manifest = load_manifest(args.manifest)
    rows = robustness_sweep(
        args.checkpoints,
        args.kind,
        args.levels,
        manifest,
        os.path.dirname(os.path.abspath(args.manifest)),
        n_seeds=args.noise_seeds,
        base_seed=args.seed,
        levels_are_stddev=args.noise_as_stddev,
    )
    write_csv(rows, ["model", "variant", "noise_kind", "level", "seed", "accuracy"], args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    manifest = load_manifest(args.manifest)
    template = TrainConfig(
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
    )
    rows = sensitivity_sweep(
        args.lrs,
        args.lambdas,
        manifest,
        os.path.dirname(os.path.abspath(args.manifest)),
        template=template,
        n_seeds=args.seeds,
    )
    write_csv(rows, ["lr", "lambda", "seed", "test_accuracy"], args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    params = load_checkpoint(args.checkpoint)
    heatmap = grad_cam(params, read_image(args.image), args.target_class)
    write_pgm(heatmap.upsampled, args.out)
    print(f"confidence {heatmap.confidence:.4f}")
    return 0


def _cmd_mask_report(args) -> int:
    params = load_checkpoint(args.checkpoint)
    with open(args.out, "w") as f:
        f.write(mask_report(params))
    print(f"wrote mask report to {args.out}")
    return 0


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ShapeError, CheckpointError, NetpbmError, TrainingFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line surface: data synthesis, training, inference, evaluation,
gradient checking, and ablation sweeps.

Every command prints its resolved configuration as one `config:` line before
doing any work, and failures come back as a single `error:` line on stderr
with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from typing import List, Optional

from .checks import TOLERANCE, run_target
from .datagen import generate_dataset
from .errors import DataError, LvfsrError
from .evaluate import (AblationSpec, ablation_report_text, eval_dir,
                       report_text, run_ablation)
from .network import VARIANTS, load_checkpoint, model_from_checkpoint
from .priors import load_prior_bundle, read_ppm, write_ppm
from .training import load_train_config, run_training

# short aliases accepted anywhere a variant list is given
_VARIANT_ALIASES = {"model1": "model1_no_prior", "model2": "model2_concat"}


class _Parser(argparse.ArgumentParser):
    """Argparse with single-line error reporting."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _print_config(name: str, values: dict) -> None:
    print(f"config: {name} " + json.dumps(values, sort_keys=True))


def _cmd_synth_data(args) -> int:
    generate_dataset(args.out, args.count, args.hr_size, args.scale,
                     args.seed, args.informative)
    print(f"wrote {args.count} train + {args.count} test pairs under {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    if args.data is not None:
        cfg.data_root = args.data
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    print("config: train_config " + json.dumps(dataclasses.asdict(cfg),
                                               sort_keys=True))
    ckpt = run_training(cfg, args.out, resume=args.resume)
    print(f"trained to step {ckpt.step}; outputs under {args.out}")
    return 0


def _cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ckpt)
    lr = read_ppm(args.lr_image)
    bundle = None
    if model.branches:
        if args.priors is None:
            raise DataError(f"variant '{model.variant}' requires --priors")
        image_id = os.path.splitext(os.path.basename(args.lr_image))[0]
        bundle = load_prior_bundle(args.priors, image_id, k=model.config.k)
    out = model.forward(lr, bundle)
    write_ppm(args.out, out.data)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    rep = eval_dir(args.pred, args.gt, out_report=args.report)
    sys.stdout.write(report_text(rep))
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_target(args.target, seed=args.seed)
    worst = 0.0
    for name, err in results:
        print(f"{name} max_rel_err={err!r}")
        worst = max(worst, err)
    ok = worst < TOLERANCE
    print(f"worst={worst!r} tolerance={TOLERANCE!r} {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _resolve_variants(raw: str) -> List[str]:
    tags = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        tag = _VARIANT_ALIASES.get(part, part)
        if tag not in VARIANTS:
            raise DataError(f"unknown variant '{part}', expected one of "
                            f"{sorted(set(VARIANTS) | set(_VARIANT_ALIASES))}")
        tags.append(tag)
    if not tags:
        raise DataError("empty variant list")
    return tags


def _cmd_ablate(args) -> int:
    variants = _resolve_variants(args.variants)
    spec = AblationSpec(steps=args.steps,
                        seeds=tuple(args.seed + i for i in range(args.seeds)))
    work = tempfile.mkdtemp(prefix="lvfsr_ablate_")
    try:
        rows = run_ablation(variants, spec, work, report_path=args.report)
    finally:
        import shutil
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(ablation_report_text(rows))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lvfsr",
                     description="Prior-conditioned face super-resolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth-data", formatter_class=fmt,
                       help="generate a synthetic face dataset with priors")
    p.add_argument("--out", required=True, help="output dataset root")
    p.add_argument("--count", type=int, default=8, help="images per split")
    p.add_argument("--hr-size", type=int, default=64, help="HR side length")
    p.add_argument("--scale", type=int, default=8, choices=(8, 16),
                   help="downscale factor")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--informative", action="store_true",
                   help="derive the description tokens from HR patches instead "
                        "of noise (mask, depth and caption do not change)")
    p.set_defaults(fn=_cmd_synth_data)

    p = sub.add_parser("train", formatter_class=fmt, help="train a model")
    p.add_argument("--config", required=True, help="JSON training config")
    p.add_argument("--data", default=None, help="override config data root")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--seed", type=int, default=None,
                   help="override config seed")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", formatter_class=fmt,
                       help="super-resolve one LR image")
    p.add_argument("--checkpoint", required=True, help="trained .lvck file")
    p.add_argument("--lr-image", required=True, help="input LR .ppm")
    p.add_argument("--priors", default=None,
                   help="directory holding <id>.*.ten prior files")
    p.add_argument("--out", required=True, help="output SR .ppm")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for uniformity; inference is deterministic")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="PSNR/SSIM report over paired .ppm directories")
    p.add_argument("--pred", required=True, help="predictions directory")
    p.add_argument("--gt", required=True, help="ground-truth directory")
    p.add_argument("--report", default=None, help="write report here")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for uniformity; evaluation is deterministic")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", formatter_class=fmt,
                       help="finite-difference gradient verification")
    p.add_argument("--target", required=True, choices=("op", "lvpfb", "network"),
                   help="what to check")
    p.add_argument("--seed", type=int, default=0, help="parameter draw seed")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("ablate", formatter_class=fmt,
                       help="train variants side by side and tabulate losses")
    p.add_argument("--variants", default="model1,model2,full",
                   help="comma-separated variant tags")
    p.add_argument("--steps", type=int, default=300, help="training steps per run")
    p.add_argument("--seeds", type=int, default=3, help="number of seeds")
    p.add_argument("--report", default=None, help="write the table here")
    p.add_argument("--seed", type=int, default=0, help="first seed of the range")
    p.set_defaults(fn=_cmd_ablate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = {k: v for k, v in vars(args).items() if k not in ("fn", "command")}
    _print_config(args.command, shown)
    try:
        return args.fn(args)
    except LvfsrError as e:
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: OSError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: train, sample, grad-check, flops, params, ablate, make-data.

Exit codes: 0 success, 1 runtime failure (message on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import analysis as A
from . import data as D
from . import trainer as TR
from .config import apply_overrides, load_config
from .errors import ConfigError
from .model import PRESETS, DualLevelModel, ModelConfig
from .samplers import SamplerConfig, sample
from .verification import run_suite


def _pair(sep: str, kind, least=None):
    """argparse ``type=`` for two ``kind`` values joined by ``sep``, e.g. ``16x16``.

    With ``least`` given, both values must be at least that.
    """

    def parse(text: str) -> tuple:
        try:
            a, b = text.lower().split(sep)
            pair = kind(a), kind(b)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected two {kind.__name__} values joined by {sep!r}, got {text!r}") from None
        if least is not None and min(pair) < least:
            raise argparse.ArgumentTypeError(f"expected values >= {least}, got {text!r}")
        return pair

    return parse


def _model_config_from_args(args) -> ModelConfig:
    if args.preset:
        return PRESETS[args.preset]
    return load_config(args.config).model


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    dataset = D.make_dataset(cfg.dataset)
    model = DualLevelModel(cfg.model, seed=cfg.train.seed)
    os.makedirs(cfg.paths.checkpoint_dir, exist_ok=True)
    os.makedirs(os.path.dirname(cfg.paths.metrics) or ".", exist_ok=True)
    state = TR.init_state(model, cfg.train)
    if args.resume:
        print(f"resuming from {args.resume}")
        TR.restore_state(model, state, args.resume)
    state = TR.train(model, dataset, cfg.train, state=state, metrics_path=cfg.paths.metrics,
                     checkpoint_dir=cfg.paths.checkpoint_dir)
    final = [m for m in state.metrics if np.isfinite(m["loss"])]
    last = final[-1]["loss"] if final else float("nan")
    print(f"trained to step {state.step}; last loss {last:.6f}; "
          f"metrics -> {cfg.paths.metrics}; checkpoints -> {cfg.paths.checkpoint_dir}")
    return 0


def cmd_sample(args) -> int:
    try:
        cfg = SamplerConfig(solver=args.solver, steps=args.steps, cfg_scale=args.cfg,
                            cfg_interval=args.interval, shift_alpha=args.shift, seed=args.seed)
    except ConfigError as e:
        args.usage_error(str(e))  # exits 2 before any checkpoint is opened
    if args.count < 1:
        args.usage_error(f"--count must be >= 1, got {args.count}")
    # one read, so that the manifest hashes the bytes sampled from, even when a
    # run saves over the file meanwhile
    with open(args.checkpoint, "rb") as f:
        blob = f.read()
    model = TR.load_model(blob, use_ema=not args.raw_params)
    y = np.full(args.count, args.class_id, dtype=np.int64)
    images = sample(model, cfg, y)
    os.makedirs(args.out, exist_ok=True)
    files = []
    for i, img in enumerate(images):
        name = f"class{args.class_id}_{i:04d}.ppm"
        D.write_image(os.path.join(args.out, name), img)
        files.append(name)
    manifest = {
        "sampler": dataclasses.asdict(cfg),
        "class_id": args.class_id,
        "count": args.count,
        "checkpoint": str(args.checkpoint),
        "checkpoint_sha256": hashlib.sha256(blob).hexdigest(),
        "ema_params": not args.raw_params,
        "files": files,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"wrote {len(files)} images + manifest.json to {args.out}")
    return 0


def cmd_grad_check(args) -> int:
    _rows, ok, _elapsed = run_suite(include_model=not args.quick)
    return 0 if ok else 1


def cmd_params(args) -> int:
    cfg = _model_config_from_args(args)
    report = A.count_params(cfg)
    print("module,parameters")
    for name, val in report.params_by_module.items():
        print(f"{name},{val}")
    print(f"total,{report.params_total}")
    print(f"# {report.params_total / 1e6:.1f}M parameters")
    return 0


def cmd_flops(args) -> int:
    cfg = _model_config_from_args(args)
    if args.resolution and any(n % cfg.patch_size for n in args.resolution):
        args.usage_error(f"--resolution {args.resolution[0]}x{args.resolution[1]} is not "
                         f"divisible by patch {cfg.patch_size}")
    report = A.estimate_flops(cfg, args.resolution)
    print("module,flops")
    for name, val in report.flops_by_module.items():
        print(f"{name},{val}")
    print(f"total,{report.flops_forward}")
    print(f"attention,{report.attention_flops}")
    print(f"attention_tokens,{report.attention_token_count}")
    print(f"# {report.flops_forward / 1e9:.1f} GFLOPs per forward (mult-add = 2 FLOPs)")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.spec)
    rows = []
    for variant in cfg.ablate.variants:
        rows.append(A.AblationRow(
            name=variant,
            model=dataclasses.replace(cfg.model, variant=variant),
            train=cfg.train,
            dataset=cfg.dataset,
            sampler=cfg.sampler if cfg.ablate.sample else None,
        ))
    csv_text, _results = A.run_ablation_sweep(rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv_text)
        print(f"wrote {args.out}")
    else:
        print(csv_text, end="")
    return 0


def cmd_make_data(args) -> int:
    cfg = load_config(args.config)
    dataset = D.make_dataset(cfg.dataset)
    os.makedirs(args.out, exist_ok=True)
    rows = ["index,file,class"]
    for i, (img, label) in enumerate(zip(dataset.images, dataset.labels)):
        name = f"img{i:05d}_class{label}.ppm"
        D.write_image(os.path.join(args.out, name), img)
        rows.append(f"{i},{name},{label}")
    with open(os.path.join(args.out, "labels.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(dataclasses.asdict(cfg.dataset), f, indent=2, sort_keys=True)
    print(f"wrote {len(dataset.labels)} images, labels.csv, manifest.json to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualdit",
        description="Dual-level pixel-space diffusion transformer, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training loop from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. --set train.lr=1e-3")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="generate images from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class", dest="class_id", type=int, required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--cfg", type=float, default=1.0)
    p.add_argument("--interval", type=_pair(",", float), default=(0.0, 1.0), metavar="LO,HI",
                   help="guidance interval in t")
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--solver", default="flow_dpm", choices=["euler", "heun", "flow_dpm"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--raw-params", action="store_true", help="use raw instead of EMA weights")
    p.set_defaults(fn=cmd_sample, usage_error=p.error)

    p = sub.add_parser("grad-check", help="finite-difference verification suite")
    p.add_argument("--quick", action="store_true", help="skip the end-to-end model sweep")
    p.set_defaults(fn=cmd_grad_check)

    for name, fn in (("params", cmd_params), ("flops", cmd_flops)):
        p = sub.add_parser(name, help=f"print the analytic {name} report")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", choices=sorted(PRESETS))
        source.add_argument("--config")
        if name == "flops":
            p.add_argument("--resolution", type=_pair("x", int, least=1), metavar="HxW",
                           help="defaults to the config resolution")
        p.set_defaults(fn=fn, usage_error=p.error)

    p = sub.add_parser("ablate", help="train variant rows and emit a comparison CSV")
    p.add_argument("--spec", required=True, help="config file; ablate.variants lists the rows")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("make-data", help="materialize a toy dataset to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BrokenPipeError, KeyboardInterrupt):
        return 1
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Print SHA-256 fingerprints of what dualdit computes, to show a change kept the bits.

    python3 tools/fingerprint.py                     # the dualdit next to this file
    python3 tools/fingerprint.py --src OTHER/src     # another checkout's package
    taskset -c 0 python3 tools/fingerprint.py        # with one usable core

It hashes:
- one guided sample batch of the desk model (B=64, 16x16, p=4, N=4, M=2,
  D=64, D_pix=8, 4 heads; flow_dpm, 32 steps, cfg 2 on (0.1, 1.0)), from
  seeded parameters with noise added, so that no branch is silenced by its
  zero-initialised gate;
- for 20 desk train steps (B=64, lr 1e-3, class drop 0.1, a checkpoint
  every 10 steps), the metrics CSV and every checkpoint file: once without
  and once with the alignment term, and once without it under clip norm
  0.1 and weight decay 0.05, so that every step clips and decays (without
  the term the gradients' norms lie near 0.25, under the default clip 1.0);
- the first of those runs resumed: its step-10 checkpoint restored into a
  fresh state, then trained to step 20 one ``train`` call per step (as
  perfbench's train_desk calls it), appending to a copy of its metrics CSV.
  Its metrics.csv and final.ckpt lines equal the uninterrupted run's
  exactly when the resume keeps the bits.

Two runs print the same lines exactly when every hashed byte is the same.
The train steps shard over the usable cores, and their bits depend on the
core count, so the first line names it; compare runs at equal counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="directory holding the dualdit package (default: ../src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from dualdit import data as D
    from dualdit import model as M
    from dualdit import samplers as S
    from dualdit import trainer as TR

    desk = M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                         patch_size=4, num_classes=3, resolution=(16, 16), channels=3)
    print(f"usable cores: {len(os.sched_getaffinity(0))}")

    model = M.DualLevelModel(desk, seed=11)
    rng = np.random.default_rng(12)
    for t in model.params.values():
        t.data += rng.normal(scale=0.02, size=t.shape).astype(t.data.dtype)
    cfg = S.SamplerConfig(solver="flow_dpm", steps=32, cfg_scale=2.0, cfg_interval=(0.1, 1.0),
                          seed=13)
    images = S.sample(model, cfg, np.arange(64) % desk.num_classes)
    print(f"{sha(images.tobytes())}  sample flow_dpm cfg 2 B=64 {images.dtype}")

    spec = D.ToyDatasetSpec(kind="solid_color", num_classes=3, resolution=(16, 16),
                            samples_per_class=256, noise_std=0.1, seed=14)
    dataset = D.make_dataset(spec)
    runs = {"align 0.0": dict(align_weight=0.0), "align 0.5": dict(align_weight=0.5),
            "align 0.0 clip 0.1 decay 0.05": dict(align_weight=0.0, clip_norm=0.1,
                                                  weight_decay=0.05)}
    configs = {run: TR.TrainConfig(lr=1e-3, batch_size=64, total_steps=20, class_drop_prob=0.1,
                                   checkpoint_every=10, seed=16, **kw) for run, kw in runs.items()}
    with tempfile.TemporaryDirectory() as root:
        for run, tcfg in configs.items():
            out = os.path.join(root, run)
            os.mkdir(out)
            model = M.DualLevelModel(desk, seed=15)
            TR.train(model, dataset, tcfg, metrics_path=os.path.join(out, "metrics.csv"),
                     checkpoint_dir=out)
            print_files(out, sorted(os.listdir(out)), f"train {run}")

        run, tcfg = "align 0.0", configs["align 0.0"]
        first, again = os.path.join(root, run), os.path.join(root, "resumed")
        os.mkdir(again)
        metrics = shutil.copy(os.path.join(first, "metrics.csv"), again)
        model = M.DualLevelModel(desk, seed=15)
        state = TR.restore_state(model, TR.init_state(model, tcfg),
                                 os.path.join(first, "step00000010.ckpt"))
        while state.step < tcfg.total_steps:
            TR.train(model, dataset, dataclasses.replace(tcfg, total_steps=state.step + 1),
                     state=state, metrics_path=metrics, checkpoint_dir=again)
        print_files(again, ["metrics.csv", "final.ckpt"], f"train {run} resumed")
    return 0


def print_files(directory: str, names: list[str], label: str):
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            print(f"{sha(f.read())}  {label} {name}")


if __name__ == "__main__":
    sys.exit(main())

"""Print what a desk checkpoint save costs over an existing file and to a fresh name.

    python3 tools/save_cost.py                     # the dualdit next to this file
    python3 tools/save_cost.py --src OTHER/src     # another checkout's package
    python3 tools/save_cost.py --dir /dev/shm      # saves on another filesystem

It times 30 ``trainer.save_checkpoint`` calls of the desk train state (B=64
recipe's model: 16x16, p=4, N=4, M=2, D=64, D_pix=8, 4 heads; 7.7 MB) over
one path, 0.3 s apart as a train run's saves are, then 30 to fresh names,
and prints the median and p90 of each in ms. A fresh name replaces nothing,
so the gap between the two is what freeing a replaced file costs the caller:
tens of ms on ext4 mounted with ``discard``, about 0 on tmpfs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SAVES = 30
GAP_S = 0.3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="directory holding the dualdit package (default: ../src)")
    parser.add_argument("--dir", default=None,
                        help="directory to make the scratch directory in (default: the system's "
                             "temporary directory)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from dualdit import model as M
    from dualdit import trainer as TR

    desk = M.ModelConfig(patch_depth=4, pixel_depth=2, patch_dim=64, pixel_dim=8, heads=4,
                         patch_size=4, num_classes=3, resolution=(16, 16), channels=3)
    model = M.DualLevelModel(desk, seed=0)
    state = TR.init_state(model, TR.TrainConfig(align_weight=0.0))
    with tempfile.TemporaryDirectory(dir=args.dir) as root:
        print(f"saves of {os.path.dirname(M.__file__)} in {root}")
        one = os.path.join(root, "one.ckpt")
        TR.save_checkpoint(one, model, state)
        for label, name in (("over one path", lambda i: one),
                            ("to fresh names", lambda i: os.path.join(root, f"{i}.ckpt"))):
            ms = []
            for i in range(SAVES):
                time.sleep(GAP_S)
                t0 = time.perf_counter()
                TR.save_checkpoint(name(i), model, state)
                ms.append(1e3 * (time.perf_counter() - t0))
            p50, p90 = np.percentile(ms, [50, 90])
            print(f"{label:>15}: median {p50:6.1f} ms  p90 {p90:6.1f} ms  ({SAVES} saves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

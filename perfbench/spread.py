"""Run one workload once per seed and print each metric's median and spread.

    python3 perfbench/spread.py --workload sample_guided --runs 10 --seconds 20

Spread is (Q3 - Q1) / median over the runs, quartiles as
statistics.quantiles(n=4) gives them; BENCHMARK.json's bound for each
end-to-end metric is what a later change may worsen it by, so a spread
near the bound makes the metric unresolved. Runs are untraced and
sequential, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        if len(vs) < 2 or statistics.median(vs) == 0:
            continue
        bound = bounds.get(k)
        note = f"bound {bound:g}, spread/bound {quartile_spread(vs) / bound:.2f}" if bound else ""
        print(f"{k:38s} median {statistics.median(vs):12.6g}  spread {quartile_spread(vs):7.4f}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

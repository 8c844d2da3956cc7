"""Benchmark of dualdit's three jobs: training, guided sampling, gradient checks.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

With ``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json with
no tracing installed. With ``--trace 1`` it measures the same loop untraced
for half the time and traced for the other half, and reports the per-layer
metrics from the traced half plus the tracing overhead (traced minus
untraced). ``--workload all`` runs each workload in a child process of its
own, one after another. ``fd_sweep`` runs like the others but is not one of
BENCHMARK.json's workloads (see README.md). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import failure_ratio, min_samples_for, percentile, samples_beyond, tail_percentile
from tracing import FLOPS_KEYS, SpanTable, Tracer, layer_self_ms, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7          # at least this many set-ups, and
SETUP_MIN_SECONDS = 3.0    # at least this long in all, so cheap set-ups get a steady median
COMPUTED = ("tensor.matmul.gflop_per_step", "tensor.out_mb_per_step", "analysis.forward_gflop_per_step")
TRACE_MIN_SAMPLES = 20
TIMER_TOLERANCE = 0.01     # share of the workload's timer that may lie outside the traced span


def import_dualdit():
    """Import dualdit from this checkout's src/, whatever the working directory."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dualdit
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import dualdit from {src}: {e}") from None
    if Path(dualdit.__file__).resolve().parent != src / "dualdit":
        raise SystemExit(f"perfbench: dualdit came from {dualdit.__file__}, not from {src}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git failed)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git failed)"


def blas_threads():
    """OpenBLAS's own thread count, asked of the library numpy loaded; None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"perfbench: warning: {env['blas_threads']} BLAS threads on {env['nproc']} "
              f"usable cores; timings include oversubscription", file=sys.stderr)
    return env


def measure(wl, seconds: float, min_samples: int) -> dict:
    """Run operations until both the time and the sample floor are reached."""
    wl.reset()
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        attempted += 1
        failed += not wl.run_op()
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(wl.samples_ms) >= min_samples:
            break
    return {"elapsed": elapsed, "samples": list(wl.samples_ms), "items": wl.items,
            "attempted": attempted, "failed": failed}


def e2e_metrics(phase: dict, setup_s: float) -> dict:
    s = phase["samples"]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": phase["items"] / phase["elapsed"],
        "op_ms_p50": percentile(s, 50),
        "op_ms_p90": percentile(s, 90),
    }


def report_e2e(wl, phase: dict, m: dict, setup_times: list, env: dict):
    n = len(phase["samples"])
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {wl.name}: {phase['attempted']} operations in {phase['elapsed']:.2f} s")
    rows = [
        ("setup_s", m["setup_s"], "s", f"median of {len(setup_times)} set-ups"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "getrusage of this process"),
        ("error_rate", failure_ratio(phase["failed"], phase["attempted"]), "ratio",
         f"{phase['failed']} failed / {phase['attempted']} attempted"),
        (wl.throughput_name, m["throughput_per_s"], f"{wl.item}/s",
         f"{phase['items']} {wl.item} in {phase['elapsed']:.2f} s"),
        (f"{wl.op_name}_p50", m["op_ms_p50"], "ms", f"n={n} {wl.sample}s"),
        (f"{wl.op_name}_p90", m["op_ms_p90"], "ms", f"n={n}, {samples_beyond(n, 90)} beyond"),
    ]
    tail = tail_percentile(n)
    if tail is not None and tail > 90:
        rows.append((f"{wl.op_name}_p{tail:g}", percentile(phase["samples"], tail), "ms",
                     f"highest percentile with 10 samples beyond, n={n}"))
    for name, value, unit, note in rows:
        print(f"{wl.name:14s} {name:24s} {value:12.4f} {unit:12s} {note}")


def run_traced(wl, seconds: float, env: dict):
    from dualdit import analysis  # only after import_dualdit has put src/ on the path

    base = measure(wl, seconds / 2, TRACE_MIN_SAMPLES)
    skipped0 = wl.skipped_steps()
    tracer = Tracer()
    try:
        tracer.install()
        wl.tracer = tracer
        wl.setup()  # traced once, so set-up layers (data, checkpoint.load) show
        tracer.tag_linears(wl.model)
        traced = measure(wl, seconds / 2, TRACE_MIN_SAMPLES)
    finally:
        tracer.uninstall()
        wl.tracer = None
    skipped = wl.skipped_steps() - skipped0
    path = OUT_DIR / f"spans_{wl.name}.npz"
    tracer.write(str(path))

    table = SpanTable(tracer)
    flops = analysis.estimate_flops(wl.config)
    shares = {k: v / flops.flops_forward for k, v in flops.flops_by_module.items()}
    metrics = per_layer_metrics(table, shares, flops.flops_forward * wl.batch / 1e9, skipped)

    untraced_p50, traced_p50 = percentile(base["samples"], 50), percentile(traced["samples"], 50)
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {wl.name}: {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    print(f"\n## tracing overhead ({wl.name}; traced minus untraced, same process)")
    for label, a, b in (
        (f"{wl.op_name}_p50", untraced_p50, traced_p50),
        (f"{wl.op_name}_p90", percentile(base["samples"], 90), percentile(traced["samples"], 90)),
        (wl.throughput_name, base["items"] / base["elapsed"], traced["items"] / traced["elapsed"]),
    ):
        print(f"  {label:24s} untraced {a:11.4f}  traced {b:11.4f}  "
              f"diff {b - a:+10.4f} ({100 * (b / a - 1):+.1f}%)")

    print(f"\n## forward time vs analytic FLOPs ({wl.name}, ms per {wl.op_unit})")
    fwd = metrics["model.forward.ms"][0]
    print(f"  {'key':14s} {'fwd_ms':>10s} {'time_share':>11s} {'flops_share':>12s}")
    attributed = 0.0
    for key in FLOPS_KEYS:
        ms = metrics[f"model.{key}.fwd_ms"][0]
        attributed += ms
        print(f"  {key:14s} {ms:10.3f} {ms / fwd if fwd else 0:11.3f} {shares.get(key, 0.0):12.3f}")
    print(f"  {'(unattributed)':14s} {fwd - attributed:10.3f} {(fwd - attributed) / fwd if fwd else 0:11.3f}")
    print(f"  {'model.forward':14s} {fwd:10.3f} {1.0 if fwd else 0:11.3f} {1.0:12.3f}")
    measured = metrics["tensor.matmul.gflop_per_step"][0]
    analytic = metrics["analysis.forward_gflop_per_step"][0]
    print(f"  tensor.matmul.gflop_per_step {measured:.6f} (computed from shapes) vs analytic "
          f"forward {analytic:.6f} GFLOP (ratio {measured / analytic if analytic else float('nan'):.4f})")

    print(f"\n## layer self time ({wl.name}, ms per {wl.op_unit})")
    layers = layer_self_ms(table)
    total = sum(layers.values())
    for layer, ms in layers.items():
        label = "unaccounted (bench code)" if layer == "bench" else layer
        print(f"  {label:26s} {ms:10.3f}  {ms / total if total else 0:6.1%}")
    print(f"  {'traced operation time':26s} {total:10.3f}  (equal to the root spans' time by construction)")
    problems = check_against_timer(wl, table, traced["samples"]) if wl.timed_span else []

    print(f"\n## per-layer metrics ({wl.name}, per {wl.op_unit} unless named per call)")
    for name, (value, unit) in metrics.items():
        note = "  (computed from shapes)" if name in COMPUTED else ""
        print(f"  {name:38s} {value:14.6f} {unit}{note}")
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    return metrics, attempted, failed, problems


def check_against_timer(wl, table: SpanTable, samples_ms: list) -> list[str]:
    """Set the layers' self times inside the timed span beside the workload's
    own timer around the same code; a gap past TIMER_TOLERANCE means the
    spans lost time."""
    layers = layer_self_ms(table, root=wl.timed_span)
    spans = sum(layers.values())
    timer = statistics.fmean(samples_ms)
    gap = timer - spans
    print(f"\n## {wl.sample} accounted for ({wl.name}, ms per {wl.sample}, inside {wl.timed_span})")
    for layer, ms in layers.items():
        label = "unaccounted (bench code)" if layer == "bench" else layer
        print(f"  {label:26s} {ms:10.3f}  {ms / timer:6.1%}")
    print(f"  {'sum of self times':26s} {spans:10.3f}")
    print(f"  {'workload timer (mean)':26s} {timer:10.3f}  n={len(samples_ms)}")
    print(f"  {'outside every span':26s} {gap:10.3f}  {gap / timer:+.3%} of the timer, "
          f"limit {TIMER_TOLERANCE:.0%}")
    if abs(gap) > TIMER_TOLERANCE * timer:
        return [f"spans account for {spans:.3f} of {timer:.3f} ms per {wl.sample}"]
    return []


def run_one(args, workloads: dict) -> dict:
    env = environment()
    wl = workloads[args.workload](args.seed, str(OUT_DIR))
    wl.prepare()
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        built = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    wl.open(built)
    try:
        wl.warmup()
        if args.trace:
            named, attempted, failed, problems = run_traced(wl, args.seconds, env)
        else:
            phase = measure(wl, args.seconds, min_samples_for(90))
            m = e2e_metrics(phase, setup_s)
            report_e2e(wl, phase, m, setup_times, env)
            units = {x["name"]: x["unit"] for x in load_spec()["end_to_end"]}
            named = {k: (v, units[k]) for k, v in m.items()}
            attempted, failed, problems = phase["attempted"], phase["failed"], []
        problems += wl.final_problems()
    finally:
        wl.close()
    for p in problems:
        print(f"perfbench: {wl.name}: check failed: {p}", file=sys.stderr)
    expected = {x["name"]: x["unit"] for x in load_spec()["per_layer" if args.trace else "end_to_end"]}
    got = {k: u for k, (_, u) in named.items()}
    if got != expected:
        raise SystemExit(f"perfbench: metrics {sorted(set(got) ^ set(expected))} disagree with "
                         f"BENCHMARK.json (or their units do)")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json", "w") as f:
        json.dump({"env": env, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "setup_s_samples": setup_times, **result}, f, indent=1)
    return result


def run_all(args, workloads: dict) -> dict:
    """Each workload in a child process of its own, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    import_dualdit()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = (run_all if args.workload == "all" else run_one)(args, WORKLOADS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

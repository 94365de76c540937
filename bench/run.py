"""Benchmark of parklike's CLI: generation, series and the bijection.

    python3 bench/run.py --workload generate|series|biject --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

Each run starts fresh worker processes (bench/worker.py): several that only
set up, for the median set-up time, then one that measures.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones.  `--workload all` runs the three workloads in turn and
prints every metric by name and unit, with each workload's failure ratio.
Machine details and any failed checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("generate", "series", "biject")
END_TO_END = ("wall_s", "op_p50_ms", "op_p95_ms", "peak_rss_mb", "setup_s")
# Set-up-only workers started before and after the measuring one (whose own
# set-up is one more sample), so the median set-up time spans the whole run.
SETUP_WORKERS = 3
WORKER_TIMEOUT_S = 170


def machine() -> dict:
    # The CPU model is recorded in README.md: reading it would mean reading
    # outside the checkout.
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    # -S: no site-packages; the library and the benchmark use only the
    # standard library, and site's .pth imports would add noise to set-up.
    cmd = [sys.executable, "-S", str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run, as the result object printed for it."""
    def setup_only():
        return [spawn(workload, seed, seconds, 0, True)["setup_s"] for _ in range(SETUP_WORKERS)]

    setups = [] if trace else setup_only()
    result = spawn(workload, seed, seconds, trace, False)
    metrics = dict(result["metrics"])
    if not trace:
        setups += setup_only() + [result["setup_s"]]
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics = {name: metrics[name] for name in END_TO_END}
    for line in result["unexpected"][:20]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    for defect, count in result["known_defects"].items():
        print(f"known defect {workload}: {count} failed request(s): {defect}", file=sys.stderr)
    print(f"{workload}: {result['requests']} requests, {result['attempted']} attempted, "
          f"{result['failed']} failed", file=sys.stderr)
    if not trace:
        walls = " ".join(f"{w:.3f}" for w in result["pass_walls"])
        raw = " ".join(f"{w:.3f}" for w in result["raw_pass_walls"])
        print(f"{workload}: pass walls (s), normalised: {walls}; as measured: {raw}; "
              f"probe median {result['probe_median_s'] * 1e6:.0f} us", file=sys.stderr)
    return {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parklike" / "cli.py").is_file():
        print(f"error: no parklike sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    print(f"machine: {json.dumps(machine())}", file=sys.stderr)
    try:
        if args.workload != "all":
            print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = result = run(workload, args.seed, args.seconds, args.trace)
            ratio = result["failed"] / result["attempted"]
            print(f"{workload:9} {'fail_ratio':32} {ratio:>16.6f} 1")
            for name, m in result["metrics"].items():
                print(f"{workload:9} {name:32} {m['value']:>16.6f} {m['unit']}")
        print(json.dumps(results))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload, in a fresh process started by run.py.

The process is a single closed-loop client with no threads: it sends each
request only after the previous one completes.  A request is a call of
`parklike.cli.main(argv)` with the CLI's real argv; stdout and stderr go to
sinks that hash and count bytes, so argument parsing, environment building,
the budget check and output formatting stay on the timed path, and every
request builds its own Generator or series evaluator as a CLI invocation does.

After one warm-up pass, the request list runs in passes until --seconds have
passed.  Outcomes are checked after each pass, outside the timed region.
Times are normalised for the machine's speed by a probe loop run between
requests (speed.py).  With --trace 1 the process runs the request list once
plain and once with the boundary tracer installed, and reports per-layer
metrics instead.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def load_cli():
    """Import the CLI from this checkout's src/, never from an installed copy."""
    if not (SRC / "parklike" / "cli.py").is_file():
        raise SystemExit(f"no parklike sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parklike
    import parklike.cli

    if not Path(parklike.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"parklike was imported from {parklike.__file__}, not {SRC}")
    return parklike.cli


class Sink:
    """A stdout/stderr stand-in that hashes and counts what is written."""

    def __init__(self, keep: bool):
        self.hash = hashlib.sha256()
        self.nbytes = 0
        self.newlines = 0
        self.chunks = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode()
        self.hash.update(data)
        self.nbytes += len(data)
        self.newlines += text.count("\n")
        if self.chunks is not None:
            self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class Client:
    def __init__(self, cli):
        self.cli = cli

    def call(self, argv, stdin: str | None = None, keep: bool = True) -> workloads.Record:
        out, err = Sink(keep), Sink(True)
        saved = sys.stdin, sys.stdout, sys.stderr
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        sys.stdout, sys.stderr = out, err
        rc, escaped = None, None
        try:
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an escaped exception is a failed request
                escaped = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return workloads.Record(
            rc=rc,
            seconds=seconds,
            digest=out.hash.hexdigest(),
            out_bytes=out.nbytes,
            out_lines=out.newlines,
            out_text=None if out.chunks is None else "".join(out.chunks),
            err_text="".join(err.chunks),
            escaped=escaped,
        )


class Outcomes:
    """Failure accounting over every request of every pass."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []
        self.known: Counter = Counter()

    def check(self, client, requests, records) -> None:
        for request, record in zip(requests, records):
            problem = request.expect.check(request, record, self.pins, client.call)
            self.attempted += 1
            if problem is None:
                continue
            self.failed += 1
            if request.known_defect:
                self.known[request.known_defect] += 1
            else:
                self.unexpected.append(f"{request.key}: {problem}")


def run_pass(client, requests, tracer=None):
    records = []
    start = perf_counter()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        records.append(client.call(request.argv, request.stdin, request.keep_output))
    return perf_counter() - start, records


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_pass(client, requests):
    """One pass with the speed probe run before the first request and after each one.

    Returns the records and each request's time normalised by the probes on
    either side of it.
    """
    records, probes = [], [speed.probe()]
    for request in requests:
        record = client.call(request.argv, request.stdin, request.keep_output)
        records.append(record)
        probes.append(speed.probe(speed.runs_after(record.seconds)))
    normalised = [record.seconds * speed.scale(before + after)
                  for record, before, after in zip(records, probes, probes[1:])]
    return records, normalised, probes


def measure(client, build, seconds: float, outcomes: Outcomes):
    """End-to-end metrics of passes over the request list, and how many were made.

    `build(k)` gives the request list of pass k.  Pass 0 warms up and is
    checked but not timed; at least one more pass is timed.
    """
    requests = build(0)
    records, _, _ = timed_pass(client, requests)
    outcomes.check(client, requests, records)
    walls, latencies, raw_walls, probes = [], [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        requests = build(len(walls) + 1)
        records, normalised, pass_probes = timed_pass(client, requests)
        outcomes.check(client, requests, records)
        walls.append(sum(normalised))
        latencies.extend(normalised)
        raw_walls.append(sum(r.seconds for r in records))
        probes.extend(t for times in pass_probes for t in times)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "pass_walls": walls,
        "raw_pass_walls": raw_walls,
        "probe_median_s": statistics.median(probes),
        "samples": len(latencies),
    }


def trace(client, requests, outcomes: Outcomes, spans_path: Path | None) -> dict:
    plain_wall, records = run_pass(client, requests)
    outcomes.check(client, requests, records)
    tracer = tracing.Tracer()
    tracer.install(tracing.boundaries(Sink))
    try:
        traced_wall, records = run_pass(client, requests, tracer)
    finally:
        tracer.uninstall()
    outcomes.check(client, requests, records)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    output_bytes = sum(r.out_bytes for r in records)
    return tracing.layer_metrics(tracer, traced_wall, plain_wall, output_bytes)


def run_workload(name, seed, seconds, traced, *, spawned_at=None, setup_only=False,
                 tiny=False, pins=None, spans_path=None) -> dict:
    """One run; returns its setup time, failure accounting and metrics."""
    start = perf_counter() if spawned_at is None else spawned_at
    client = Client(load_cli())
    requests = workloads.build(name, seed, tiny)
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s * speed.scale(speed.probe(10)), "raw_setup_s": setup_s}
    if setup_only:
        return result
    outcomes = Outcomes(workloads.load_pins() if pins is None else pins)
    if traced:
        metrics = trace(client, requests, outcomes, spans_path)
    else:
        metrics, counts = measure(
            client, lambda k: workloads.build(name, seed, tiny, k), seconds, outcomes)
        result.update(counts)
    result.update(
        requests=len(requests),
        attempted=outcomes.attempted,
        failed=outcomes.failed,
        unexpected=outcomes.unexpected,
        known_defects=dict(outcomes.known),
        metrics=metrics,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's perf_counter() just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spawned_at=args.spawned_at, setup_only=args.setup_only,
                          spans_path=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

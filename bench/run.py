"""Benchmark of the spacings_gof package.  Run from the repository root:

    python3 bench/run.py --workload null_sim --seed 1 --seconds 35 --trace 0

--trace 0 repeats the workload's pass of operations for about --seconds
seconds and reports the end-to-end metrics, timing each operation by its
median over the passes.  --trace 1 runs the same pass
untraced, traced, untraced and traced, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; progress and check failures go to stderr.
See bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, clear_caches, load_library

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: setup_s is the median of this many fresh processes
SETUP_PROBES = 7


@dataclass
class Record:
    op: object
    rc: int | None
    out: str
    seconds: float
    artifact: bytes | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def execute(lib, op, tracer=None, on_clear=None) -> Record:
    clear_caches(lib)
    if on_clear is not None:
        on_clear()
    t0 = time.perf_counter()
    try:
        rc, out = op.run(tracer)
    except Exception:  # the op fails; the run goes on
        rc, out = None, ""
        traceback.print_exc()
    seconds = time.perf_counter() - t0
    artifact = op.artifact() if op.artifact is not None and rc == 0 else None
    return Record(op, rc, out, seconds, artifact)


def run_pass(lib, wl, tracer=None, on_clear=None) -> list[Record]:
    return [execute(lib, op, tracer, on_clear) for op in wl.ops(lib)]


def check_all(records) -> bool:
    """Check every record's output; returns whether all produced outputs
    were right.  Same-named operations must give the same bytes."""
    first, verdicts, correct = {}, {}, True
    for r in records:
        if r.rc != 0:
            print(f"failed: {r.op.name}: exit {r.rc}", file=sys.stderr)
            continue
        key = (r.op.name, r.out, r.artifact)
        if key not in verdicts:
            verdicts[key] = r.op.check(r.out, r.artifact)
        r.problems = list(verdicts[key])
        ref = first.setdefault(r.op.name, (r.out, r.artifact))
        if ref != (r.out, r.artifact):
            r.problems.append("output bytes differ from the first run of this operation")
        for msg in r.problems:
            print(f"check failed: {r.op.name}: {msg}", file=sys.stderr)
        correct = correct and not r.problems
    return correct


def setup_seconds(workload: str) -> float:
    """Median time from process start until the package is imported and the
    workload's program objects are built, over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def untraced(lib, wl, seconds: float):
    """Repeat the pass for about `seconds`.  wall_s sums each operation's
    median time over the passes, which is steadier than the pass totals:
    the host runs up to 1.5 times slower in phases that last from under a
    second to minutes."""
    records, walls, times = [], [], {}
    start = time.perf_counter()
    while True:
        recs = run_pass(lib, wl)
        records += recs
        walls.append(sum(r.seconds for r in recs))
        for r in recs:
            times.setdefault(r.op.name, []).append(r.seconds)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = check_all(records)
    failed = sum(r.failed for r in records)
    wall = sum(statistics.median(ts) for ts in times.values())
    print(f"{wl.name}: {len(walls)} passes, pass seconds "
          f"{[round(w, 3) for w in walls]}", file=sys.stderr)
    print("operation seconds: " + json.dumps(times), file=sys.stderr)
    metrics = {
        "wall_s": (wall, "s"),
        "rep_elems_per_s": (wl.elems_per_pass / wall, "elem/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_ok_frac": (1.0 - failed / len(records), "ratio"),
    }
    return correct, len(records), failed, metrics


def thread_probe(lib, wl):
    """The first operation at SPACINGS_GOF_THREADS=1 and at the default.
    Returns (speedup, records); check_all requires identical stdout."""
    op = wl.ops(lib)[0]
    os.environ["SPACINGS_GOF_THREADS"] = "1"
    try:
        one = execute(lib, op)
    finally:
        del os.environ["SPACINGS_GOF_THREADS"]
    default = execute(lib, op)
    return one.seconds / default.seconds, [one, default]


def traced(lib, wl):
    from layers import count_signature, instrument, layer_metrics
    from tracing import Tracer, write_spans

    records, speedup = [], 0.0
    if wl.name == "null_sim":
        speedup, records = thread_probe(lib, wl)
    tracer = Tracer()
    # untraced and traced passes alternate, so that a drift in machine speed
    # does not show up as tracing overhead
    plain, passes, spans = [], [], []
    for _ in range(2):
        plain.append(run_pass(lib, wl))
        reset = instrument(tracer, lib, tunings=wl.tunings())
        try:
            recs = run_pass(lib, wl, tracer, reset)
        finally:
            tracer.uninstall()
        passes.append((recs, tracer.summary()))
        spans += tracer.spans
        tracer.reset()
    OUT.mkdir(exist_ok=True)
    write_spans(OUT / f"trace-{wl.name}.jsonl.gz", spans)

    problems = []
    signatures = [count_signature(s) for _, s in passes]
    if signatures[0] != signatures[1]:
        problems.append("the two traced passes counted different work")
    ref = plain[0]
    for recs in plain[1:] + [recs for recs, _ in passes]:
        for r, base in zip(recs, ref):
            if (r.rc, r.out, r.artifact) != (base.rc, base.out, base.artifact):
                problems.append(f"{r.op.name}: output differs from the first untraced pass")
    for msg in problems:
        print(f"self-check failed: {msg}", file=sys.stderr)
    records += [r for recs in plain for r in recs] + [r for recs, _ in passes for r in recs]
    correct = check_all(records) and not problems
    failed = sum(r.failed for r in records)

    metrics = layer_metrics([s for _, s in passes], wl.REPS)
    untraced_wall = statistics.fmean(sum(r.seconds for r in recs) for recs in plain)
    traced_wall = statistics.fmean(sum(r.seconds for r in recs) for recs, _ in passes)
    metrics["montecarlo.threads_speedup"] = (speedup, "ratio")
    metrics["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["op_fail_frac"] = (failed / len(records), "ratio")
    return correct, len(records), failed, metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "spacings_gof" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'spacings_gof'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    # measure at the library's default worker count, one per core
    os.environ.pop("SPACINGS_GOF_THREADS", None)

    if args.setup_probe:
        wl = WORKLOADS[args.workload](args.seed, OUT)
        wl.build(load_library())
        print(time.monotonic())
        return 0

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lib = load_library()
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare(lib)
        if args.trace:
            correct, attempted, failed, metrics = traced(lib, wl)
        else:
            correct, attempted, failed, metrics = untraced(lib, wl, args.seconds)
            metrics = {"setup_s": (setup_seconds(args.workload), "s"), **metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
